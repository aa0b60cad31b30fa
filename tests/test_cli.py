import contextlib
import importlib.util
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import txf
from conftest import FIXTURES
from keepalive_server import CountingServer, serving
from txf.cli import main


def _copy_cli_task(tmp_path):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    shutil.copytree(FIXTURES / "cli_task" / "manifests", manifests)
    shutil.copytree(FIXTURES / "cli_task" / "data", data)
    return manifests, data


def test_build_golden_snapshot(tmp_path, capsys):
    manifests, data = _copy_cli_task(tmp_path)
    out = tmp_path / "out"
    code = main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--seed", "1", "--shots", "0",
    ])
    assert code == 0
    prompts = (out / "bbb_martins.train.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(prompts) == 1
    obj = json.loads(prompts[0])
    golden = (FIXTURES / "golden_prompts" / "binary_bbb.txt").read_text(encoding="utf-8").rstrip("\n")
    assert obj["prompt"] + " " + obj["target"] == golden
    audit = (out / "bbb_martins.splits.tsv").read_text()
    assert audit == "0\ttrain\n"


def test_build_rerun_byte_identical(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main([
            "build", "--manifests", str(manifests), "--data", str(data),
            "--out", str(out), "--seed", "1",
        ]) == 0
    for name in ("bbb_martins.train.jsonl", "bbb_martins.splits.tsv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_build_missing_column_exits_nonzero(tmp_path, capsys):
    manifests, data = _copy_cli_task(tmp_path)
    (data / "bbb_martins.tsv").write_text("Smiles\tY\nCCO\t1\n")
    out = tmp_path / "out"
    code = main([
        "build", "--manifests", str(manifests), "--data", str(data), "--out", str(out),
    ])
    assert code == 1
    assert "missing columns" in capsys.readouterr().err


@pytest.mark.parametrize("shots", ["knn3", "random3"])
def test_build_pool_of_only_the_query_renders_zero_shot(tmp_path, shots):
    manifests, data = _copy_cli_task(tmp_path)
    out = tmp_path / "out"
    code = main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--seed", "1", "--shots", shots,
    ])
    assert code == 0
    [line] = (out / "bbb_martins.train.jsonl").read_text(encoding="utf-8").splitlines()
    obj = json.loads(line)
    assert obj["shots"] == []
    golden = (FIXTURES / "golden_prompts" / "binary_bbb.txt").read_text(encoding="utf-8").rstrip("\n")
    assert obj["prompt"] + " " + obj["target"] == golden


def test_build_knn_without_similarity_role_draws_like_random(tmp_path, capsys):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    (manifests / "notes.manifest").write_text(
        "task_id: notes\n"
        "task_kind: binary\n"
        "metric: auroc\n"
        "split_method: random\n"
        "label_column: Y\n"
        "roles: note\n"
        "role.note.kind: text\n"
        "role.note.column: Note\n"
        "role.note.label: Note\n"
        "instruction: Classify.\n"
        "context: Ctx.\n"
        "question: Active?\\n\\n(A) no (B) yes\n"
    )
    rows = [f"note {i}\t{i % 2}" for i in range(60)]
    (data / "notes.tsv").write_text("Note\tY\n" + "\n".join(rows) + "\n")
    warned = {}
    for shots in ("knn3", "random3"):
        assert main([
            "build", "--manifests", str(manifests), "--data", str(data),
            "--out", str(tmp_path / shots), "--seed", "1", "--shots", shots,
        ]) == 0
        warned[shots] = capsys.readouterr().err
    assert warned == {
        "knn3": "warning: notes: no similarity-capable role; using random shots\n",
        "random3": "",
    }
    for split in ("train", "valid", "test"):
        name = f"notes.{split}.jsonl"
        assert (tmp_path / "knn3" / name).read_bytes() == (tmp_path / "random3" / name).read_bytes()
    # Each query draws its own shots, as random shots do.
    lines = (tmp_path / "knn3" / "notes.test.jsonl").read_text(encoding="utf-8").splitlines()
    shot_sets = {tuple(json.loads(line)["shots"]) for line in lines}
    assert len(lines) == 6 and len(shot_sets) == 6


def _non_numeric_label_min(manifests, data):
    path = manifests / "bbb_martins.manifest"
    path.write_text(path.read_text() + "label_min: abc\nlabel_max: 1\n")
    return "label_min"


def _table_not_utf8(manifests, data):
    (data / "bbb_martins.tsv").write_bytes(b"Drug\tY\nCC\xffO\t1\n")
    return "not UTF-8"


@pytest.mark.parametrize("corrupt", [_non_numeric_label_min, _table_not_utf8])
def test_build_bad_input_exits_with_one_error_line(tmp_path, capsys, corrupt):
    manifests, data = _copy_cli_task(tmp_path)
    expected = corrupt(manifests, data)
    code = main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "bbb_martins" in line and expected in line


def test_build_invalid_manifest_lists_violations(tmp_path, capsys):
    manifests, data = _copy_cli_task(tmp_path)
    bad = (manifests / "bbb_martins.manifest").read_text().replace(
        "metric: auroc", "metric: nonsense"
    )
    (manifests / "bbb_martins.manifest").write_text(bad)
    code = main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "unknown metric" in capsys.readouterr().err


def test_scoreboard_command(tmp_path, capsys):
    out_file = tmp_path / "board.json"
    code = main([
        "scoreboard", "--fixture", str(FIXTURES / "benchmark_results.csv"),
        "--out", str(out_file),
    ])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["exceed"] == 22
    assert payload["near"] == 21
    assert payload["near_or_above"] == 43
    medians = payload["median_relative_difference_by_feature_type"]
    assert medians["SMILES + Text"] == pytest.approx(0.048, abs=0.005)


def test_scoreboard_no_sota_separate_buckets_the_rows_without_a_reference(capsys):
    assert main([
        "scoreboard", "--fixture", str(FIXTURES / "benchmark_results.csv"), "--no-sota-separate",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    counts = {k: payload[k] for k in ("exceed", "near", "below", "no_sota", "near_or_above", "total")}
    assert counts == {"exceed": 19, "near": 21, "below": 23, "no_sota": 3, "near_or_above": 40, "total": 66}


def test_scoreboard_a_model_above_a_negative_reference_exceeds_it(tmp_path, capsys):
    # A Spearman reference can be negative; the model above it is better.
    path = tmp_path / "scores.csv"
    path.write_text(_SCORES + "\nt,spearman,false,-0.2,0.1\n", encoding="utf-8")
    assert main(["scoreboard", "--fixture", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["exceed"], payload["total"]) == (1, 1)


_MEDIANS = """\
  "median_relative_difference_by_feature_type": {
    "Amino acid": -0.080122,
    "Amino acid + SMILES": -0.481308,
    "Nucleotide": -0.887838,
    "Nucleotide + Amino acid": -0.006219,
    "SMILES": -0.082206,
    "SMILES + Text": 0.048062
  }
}
"""


def _counts(*values):
    keys = ("exceed", "near", "below", "no_sota", "near_or_above", "total")
    return "".join(f'  "{key}": {value},\n' for key, value in zip(keys, values))


def _comparison(n, n_used, wins_a, wins_b, statistic, p_value):
    return (
        f'{{\n  "n": {n},\n  "n_used": {n_used},\n  "wins_a": {wins_a},\n  "wins_b": {wins_b},\n'
        f'  "zeros": 0,\n  "statistic": {statistic},\n  "p_value": {p_value}\n}}\n'
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["scoreboard", "--fixture", "benchmark_results.csv"], "{\n" + _counts(22, 21, 23, 0, 43, 66) + _MEDIANS),
        (
            ["scoreboard", "--fixture", "benchmark_results.csv", "--no-sota-separate"],
            "{\n" + _counts(19, 21, 23, 3, 40, 66) + _MEDIANS,
        ),
        (
            ["compare", "--pairs", "model_size_results.csv", "--a-col", "model_s", "--b-col", "model_m"],
            _comparison(66, 66, 9, 57, "280.0", "1.36299668838444e-07"),
        ),
        (
            ["compare", "--pairs", "model_size_results.csv", "--a-col", "base_s", "--b-col", "model_s"],
            _comparison(66, 66, 6, 60, "108.0", "1.9036757832957698e-10"),
        ),
        (
            ["compare", "--pairs", "model_size_results.csv", "--a-col", "base_m", "--b-col", "model_m"],
            _comparison(66, 66, 3, 63, "42.0", "1.1172205649604589e-11"),
        ),
        (
            ["compare", "--pairs", "context_ablation_results.csv", "--a-col", "no_context", "--b-col", "with_context"],
            _comparison(66, 61, 17, 49, "315.0", "6.035306357164884e-06"),
        ),
    ],
)
def test_scoreboard_and_compare_print_the_pinned_bytes(tmp_path, capsys, argv, expected):
    """The full output of scoreboard in both modes and of compare on every
    fixture pair, byte for byte, on stdout and in the --out file."""
    argv = [str(FIXTURES / arg) if arg.endswith(".csv") else arg for arg in argv]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == expected
    assert out.read_bytes() == expected.encode()


def test_scoreboard_model_col_reads_the_named_column(tmp_path, capsys):
    text = (FIXTURES / "benchmark_results.csv").read_text()
    renamed = text.replace(",sota,model\n", ",sota,tx_llm\n", 1)
    assert renamed != text
    (tmp_path / "results.csv").write_text(renamed)
    assert main(["scoreboard", "--fixture", str(tmp_path / "results.csv"), "--model-col", "tx_llm"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["exceed"], payload["near"], payload["near_or_above"]) == (22, 21, 43)


def test_compare_command_identical_inputs(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    rows = ["task,metric,lower_is_better,a,b"]
    rows += [f"t{i},auroc,false,0.{50 + i},0.{50 + i}" for i in range(6)]
    pairs.write_text("\n".join(rows) + "\n")
    code = main(["compare", "--pairs", str(pairs)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_value"] == 1.0


def test_compare_command_size_fixture(capsys):
    code = main([
        "compare", "--pairs", str(FIXTURES / "model_size_results.csv"),
        "--a-col", "model_s", "--b-col", "model_m",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["wins_b"] == 57
    assert payload["n"] == 66


def _generation_task(tmp_path, truth):
    """A 30-row reaction task whose every truth is ``truth``."""
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    manifest_text = (
        "task_id: gen\n"
        "task_kind: generation\n"
        "metric: set_accuracy\n"
        "split_method: random\n"
        "label_column: Y\n"
        "roles: product\n"
        "role.product.kind: smiles\n"
        "role.product.column: Product\n"
        "role.product.label: Product SMILES\n"
        "instruction: Predict the reactants.\n"
        "context: Retrosynthesis.\n"
        "question: Given a product SMILES string, predict the reactant SMILES string.\n"
    )
    (manifests / "gen.manifest").write_text(manifest_text)
    lines = ["Product\tY"]
    for i in range(30):
        lines.append(f"C{'C' * (i % 5)}O\t{truth}")
    (data / "gen.tsv").write_text("\n".join(lines) + "\n")
    return manifests, data


def test_evaluate_echo_stub(tmp_path, capsys):
    manifests, data = _generation_task(tmp_path, "CC.O")
    out = tmp_path / "out"
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--stub", "echo", "--concurrency", "3",
    ])
    assert code == 0
    payload = json.loads((out / "gen.result.json").read_text())
    assert payload["value"] == 1.0
    assert (out / "gen.rows.csv").exists()


def test_evaluate_rejects_an_unparseable_generation_truth_before_any_call(tmp_path, capsys):
    manifests, data = _generation_task(tmp_path, "C1CC.O")
    out = tmp_path / "out"
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--stub", "echo",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: gen: record \S+: ground-truth SMILES does not parse: 'C1CC\.O'", err[0])
    assert not out.exists() or not any(out.iterdir())


def _regression_task_without_range(tmp_path):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    (manifests / "perm.manifest").write_text(
        "task_id: perm\n"
        "task_kind: regression\n"
        "metric: pearson\n"
        "split_method: random\n"
        "label_column: Y\n"
        "roles: drug\n"
        "role.drug.kind: smiles\n"
        "role.drug.column: Drug\n"
        "role.drug.label: Drug SMILES\n"
        "instruction: Answer the following question about drug properties.\n"
        "context: Permeability.\n"
        "question: Given a drug SMILES string, predict the permeability from 000 to 1000.\n"
    )
    labels = [round(-7.5 + 0.173 * ((i * 17) % 40), 3) for i in range(40)]
    lines = ["Drug\tY"] + [f"{'C' * (i % 7 + 1)}O\t{y}" for i, y in enumerate(labels)]
    (data / "perm.tsv").write_text("\n".join(lines) + "\n")
    return manifests, data, labels


def test_build_fit_ranges_fits_the_train_split_range(tmp_path):
    from txf.corpus import read_manifest
    from txf.promptgen import bin_label

    manifests, data, labels = _regression_task_without_range(tmp_path)
    out = tmp_path / "out"
    code = main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--fit-ranges",
    ])
    assert code == 0
    splits = dict(
        line.split("\t") for line in (out / "perm.splits.tsv").read_text().splitlines()
    )
    train = [labels[int(rid)] for rid, split in splits.items() if split == "train"]
    assert 0 < len(train) < len(labels)
    fitted = read_manifest(out / "perm.manifest")
    assert fitted.label_range == (min(train), max(train))
    assert fitted.label_range != (min(labels), max(labels))  # valid/test labels left out
    for split in ("train", "valid", "test"):
        for line in (out / f"perm.{split}.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert record["target"] == bin_label(labels[int(record["record_id"])], fitted.label_range)[1]


def test_build_without_fit_ranges_needs_a_label_range(tmp_path, capsys):
    manifests, data, _ = _regression_task_without_range(tmp_path)
    code = main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: perm: regression manifest needs a label range\n"


def test_build_drops_a_row_with_a_non_finite_label(tmp_path):
    manifests, data, labels = _regression_task_without_range(tmp_path)
    with open(manifests / "perm.manifest", "a") as fh:
        fh.write("label_min: -8\nlabel_max: 0\n")
    with open(data / "perm.tsv", "a") as fh:
        fh.write("CCN\tnan\n")
    out = tmp_path / "out"
    code = main(["build", "--manifests", str(manifests), "--data", str(data), "--out", str(out)])
    assert code == 0
    split_ids = [line.split("\t")[0] for line in (out / "perm.splits.tsv").read_text().splitlines()]
    assert sorted(split_ids, key=int) == [str(i) for i in range(len(labels))]


def test_build_rejects_a_non_finite_label_range(tmp_path, capsys):
    manifests, data, _ = _regression_task_without_range(tmp_path)
    with open(manifests / "perm.manifest", "a") as fh:
        fh.write("label_min: -inf\nlabel_max: 0\n")
    code = main(["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: perm: label range must be finite\n"


def test_build_fit_ranges_rejects_a_degenerate_train_range(tmp_path, capsys):
    manifests, data, labels = _regression_task_without_range(tmp_path)
    rows = ["Drug\tY"] + [f"{'C' * (i % 7 + 1)}O\t-2.5" for i in range(len(labels))]
    (data / "perm.tsv").write_text("\n".join(rows) + "\n")
    argv = ["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]
    assert main(argv + ["--fit-ranges"]) == 1
    assert capsys.readouterr().err == "error: perm: degenerate label range [-2.5, -2.5]\n"


def test_build_fit_ranges_rejects_a_split_with_no_train_records(tmp_path, capsys):
    # Every acyclic molecule has the empty scaffold, so the one scaffold
    # group is larger than the train and valid shares, and goes to test.
    manifests, data, _ = _regression_task_without_range(tmp_path)
    path = manifests / "perm.manifest"
    path.write_text(path.read_text().replace("split_method: random", "split_method: scaffold"))
    argv = ["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]
    assert main(argv + ["--fit-ranges"]) == 1
    assert capsys.readouterr().err == "error: perm: no train records to fit a label range\n"


def test_build_prints_one_error_line_per_broken_manifest_invariant(tmp_path, capsys):
    manifests, data = _copy_cli_task(tmp_path)
    path = manifests / "bbb_martins.manifest"
    text = path.read_text()
    for old, new in (
        ("split_method: scaffold", "split_method: cold_start"),
        ("role.drug.kind: smiles", "role.drug.kind: peptide"),
        ("instruction: Answer", "instruction: For {target}, answer"),
    ):
        text = text.replace(old, new)
    path.write_text(text)
    argv = ["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: bbb_martins: role 'drug' has unknown kind 'peptide'",
        "error: bbb_martins: cold_start split needs cold_start_role",
        "error: bbb_martins: instruction references undeclared role 'target'",
    ]


def test_build_reports_a_missing_label_range_only_on_an_otherwise_valid_manifest(tmp_path, capsys):
    # The manifest is checked when it is read, and the label range after
    # that, since --fit-ranges may fit it; so a broken manifest lists only
    # its own problems.
    manifests, data, _ = _regression_task_without_range(tmp_path)
    path = manifests / "perm.manifest"
    path.write_text(path.read_text().replace("split_method: random", "split_method: sideways"))
    argv = ["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]
    for extra in ([], ["--fit-ranges"]):
        assert main(argv + extra) == 1
        assert capsys.readouterr().err == "error: perm: unknown split_method 'sideways'\n"


def test_build_mixture_equals_build_mixture_over_the_train_records(tmp_path):
    from txf.corpus import FeatureTable, assign_splits, load_table, read_manifest
    from txf.promptgen import build_mixture, write_prompt_jsonl

    manifests, data = tmp_path / "manifests", tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    for task_id in ("toya", "toyb"):
        _write_toy_binary(manifests, data, task_id, n=30 if task_id == "toya" else 60)
    out = tmp_path / "out"
    assert main([
        "build", "--manifests", str(manifests), "--data", str(data), "--out", str(out),
        "--seed", "3", "--mixture", "200",
    ]) == 0
    tasks = {}
    for task_id in ("toya", "toyb"):
        manifest = read_manifest(manifests / f"{task_id}.manifest")
        records = assign_splits(load_table(data / f"{task_id}.tsv", manifest).records, manifest, 3, FeatureTable())
        tasks[task_id] = manifest, [r for r in records if r.split == "train"]
    write_prompt_jsonl(build_mixture(tasks, 200, seed=3), tmp_path / "expected.jsonl")
    assert (out / "mixture.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
    assert len((out / "mixture.jsonl").read_text(encoding="utf-8").splitlines()) == 200


def test_evaluate_requires_model(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1


def test_evaluate_degenerate_metric_exit_code(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    # Single record lands in train; the test split is empty -> undefined.
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--stub", "majority",
    ])
    assert code == 3


@pytest.mark.parametrize("metric", ["pearson", "spearman"])
def test_evaluate_one_row_subtask_correlation_is_undefined(tmp_path, metric):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    (manifests / "reg.manifest").write_text(
        "task_id: reg\n"
        "task_kind: regression\n"
        f"metric: {metric}\n"
        "split_method: temporal\n"
        "timestamp_column: T\n"
        "subtask_column: Assay\n"
        "label_column: Y\n"
        "label_min: 0\n"
        "label_max: 10\n"
        "roles: drug\n"
        "role.drug.kind: smiles\n"
        "role.drug.column: Drug\n"
        "role.drug.label: Drug SMILES\n"
        "instruction: Predict.\n"
        "context: Assay {subtask}.\n"
        "question: Value?\n"
    )
    # Of 30 rows the three latest form the test split: two of subtask A,
    # one of subtask solo.
    lines = ["Drug\tY\tT\tAssay"]
    for i in range(30):
        lines.append(f"{'C' * (1 + i % 9)}O\t{i % 7}\t{i}\t{'solo' if i == 29 else 'A'}")
    (data / "reg.tsv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--stub", "echo",
    ])
    assert code == 0
    payload = json.loads((out / "reg.result.json").read_text())
    assert payload["subtask_values"] == {"A": 1.0, "solo": None}
    assert payload["value"] == 1.0


def test_contamination_command(tmp_path, capsys):
    features = tmp_path / "features.tsv"
    corpus = tmp_path / "corpus.txt"
    features.write_text("r1\tNEEDLE\nr2\tABSENT\n")
    corpus.write_text("hay NEEDLE hay")
    flags_out = tmp_path / "flags.tsv"
    code = main([
        "contamination", "--features", str(features), "--corpus", str(corpus),
        "--out", str(flags_out),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_flagged"] == 1
    assert payload["percent_overlap"] == 50.0
    assert flags_out.read_text() == "r1\t1\nr2\t0\n"


def test_contamination_command_counts_the_flags_and_rounds_the_percent(tmp_path, capsys):
    features = tmp_path / "features.tsv"
    corpus = tmp_path / "corpus.txt"
    features.write_text("r3\tABSENT\nr1\tNEEDLE\nr2\tMISSING\n")
    corpus.write_text("hay NEEDLE hay")
    flags_out = tmp_path / "flags.tsv"
    code = main([
        "contamination", "--features", str(features), "--corpus", str(corpus),
        "--out", str(flags_out),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "n_records": 3, "n_flagged": 1, "percent_overlap": 33.3333,
    }
    assert flags_out.read_text() == "r3\t0\nr1\t1\nr2\t0\n"


def test_contamination_command_matches_a_find_per_pattern_across_blocks(tmp_path, capsys, scan_compiles):
    # The command reads its corpus in 1 MiB blocks. Over a corpus of more
    # than 2 MiB, patterns are found one block after another, so keys retire
    # and regexes are rebuilt between blocks, and two patterns span a block
    # boundary.
    block = 1 << 20
    rng = random.Random(34)
    filler = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz \n") for _ in range(1 << 15))
    patterns = ["".join(rng.choice("CNOc1=()[]") for _ in range(rng.randint(3, 70))) for _ in range(200)]
    parts, size, straddled = [], 0, 0
    for pattern in patterns[:150]:
        gap = rng.randrange(1 << 15)
        for boundary in (block, 2 * block):
            if size < boundary < size + gap + len(pattern):
                gap = max(0, boundary - size - len(pattern) // 2)
                straddled += 1
        parts += [filler[:gap], pattern]
        size += gap + len(pattern)
    corpus = "".join(parts)
    assert len(corpus) > 2 * block and straddled == 2
    (tmp_path / "corpus.txt").write_text(corpus, encoding="utf-8")
    (tmp_path / "features.tsv").write_text(
        "".join(f"r{i}\t{p}\n" for i, p in enumerate(patterns)), encoding="utf-8"
    )
    flags_out = tmp_path / "flags.tsv"
    assert main([
        "contamination", "--features", str(tmp_path / "features.tsv"),
        "--corpus", str(tmp_path / "corpus.txt"), "--out", str(flags_out),
    ]) == 0
    expected = "".join(f"r{i}\t{int(corpus.find(p) >= 0)}\n" for i, p in enumerate(patterns))
    assert flags_out.read_text(encoding="utf-8") == expected
    assert json.loads(capsys.readouterr().out)["n_flagged"] >= 150
    assert len(scan_compiles) > len({p[0] for p in patterns})


BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("name", ["manifests/bbb_martins.manifest", "data/bbb_martins.tsv"])
def test_build_ignores_a_leading_byte_order_mark(tmp_path, name):
    outputs = []
    for mark in (b"", BOM):
        root = tmp_path / ("marked" if mark else "plain")
        _copy_cli_task(root)
        path = root / name
        path.write_bytes(mark + path.read_bytes())
        out = root / "out"
        assert main([
            "build", "--manifests", str(root / "manifests"), "--data", str(root / "data"),
            "--out", str(out), "--seed", "1",
        ]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "bbb_martins.splits.tsv" in outputs[0] and "bbb_martins.train.jsonl" in outputs[0]
    assert outputs[1] == outputs[0]


def test_contamination_ignores_a_leading_byte_order_mark(tmp_path, capsys):
    features = tmp_path / "features.tsv"
    features.write_bytes(BOM + b"r1\tNEEDLE\nr2\tABSENT\n")
    (tmp_path / "corpus.txt").write_text("hay NEEDLE hay")
    flags_out = tmp_path / "flags.tsv"
    assert main([
        "contamination", "--features", str(features), "--corpus", str(tmp_path / "corpus.txt"),
        "--out", str(flags_out),
    ]) == 0
    assert flags_out.read_text(encoding="utf-8") == "r1\t1\nr2\t0\n"


def test_compare_pairs_ignores_a_leading_byte_order_mark(tmp_path, capsys):
    marked = tmp_path / "pairs.csv"
    marked.write_bytes(BOM + (FIXTURES / "model_size_results.csv").read_bytes())
    payloads = []
    for path in (FIXTURES / "model_size_results.csv", marked):
        assert main(["compare", "--pairs", str(path), "--a-col", "model_s", "--b-col", "model_m"]) == 0
        payloads.append(capsys.readouterr().out)
    assert payloads[1] == payloads[0]


def _write_toy_binary(manifests, data, task_id, n=100):
    (manifests / f"{task_id}.manifest").write_text(
        f"task_id: {task_id}\n"
        "task_kind: binary\n"
        "metric: auroc\n"
        "split_method: random\n"
        "label_column: Y\n"
        "roles: drug\n"
        "role.drug.kind: smiles\n"
        "role.drug.column: Drug\n"
        "role.drug.label: Drug SMILES\n"
        "instruction: Classify.\n"
        "context: Ctx.\n"
        "question: Active?\\n\\n(A) no (B) yes\n"
    )
    lines = ["Drug\tY"]
    for i in range(n):
        lines.append(f"{'C' * (1 + i % 9)}N{task_id[-1] * (i % 3)}\t{i % 2}")
    (data / f"{task_id}.tsv").write_text("\n".join(lines) + "\n")


def test_evaluate_valid_split_scores_the_audits_valid_records(tmp_path):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_toy_binary(manifests, data, "toyv")
    common = ["--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]
    assert main(["build", *common]) == 0
    assert main(["evaluate", *common, "--stub", "majority", "--split", "valid"]) == 0
    audit = (tmp_path / "out" / "toyv.splits.tsv").read_text().splitlines()
    valid = [line for line in audit if line.endswith("\tvalid")]
    payload = json.loads((tmp_path / "out" / "toyv.result.json").read_text())
    rows = (tmp_path / "out" / "toyv.rows.csv").read_text().splitlines()[1:]
    assert 0 < payload["n"] == len(valid) == len(rows) < 100
    assert {row.split(",")[0] for row in rows} == {line.split("\t")[0] for line in valid}


def test_evaluate_transport_failure_exit_code(tmp_path, monkeypatch):
    from txf import transport

    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_toy_binary(manifests, data, "toyb")

    real = transport.HttpModelClient

    def fast_client(url):
        return real(url, timeout=0.2, max_attempts=2, backoff=0.01)

    monkeypatch.setattr(transport, "HttpModelClient", fast_client)
    out = tmp_path / "out"
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--model-url", "http://127.0.0.1:9/generate",
    ])
    assert code == 2
    payload = json.loads((out / "toyb.result.json").read_text())
    assert payload["failures"]
    assert payload["n"] == 10


def test_compare_result_directories(tmp_path, capsys):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    for k in range(5):
        _write_toy_binary(manifests, data, f"task{k}")
    out_echo = tmp_path / "echo"
    out_majority = tmp_path / "majority"
    assert main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out_majority), "--stub", "majority",
    ]) == 0
    assert main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out_echo), "--stub", "echo",
    ]) == 0
    capsys.readouterr()  # drop the evaluate progress lines
    code = main([
        "compare", "--results-a", str(out_majority), "--results-b", str(out_echo),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    assert payload["wins_b"] == 5  # echo is perfect, majority is 0.5


def test_compare_result_files_without_a_direction_take_the_metrics(tmp_path, capsys):
    # Six mae results, each lower (better) in A; the files give no direction.
    dirs = tmp_path / "a", tmp_path / "b"
    for d, offset in zip(dirs, (0.1, 0.2)):
        d.mkdir()
        for i in range(6):
            (d / f"t{i}.result.json").write_text(json.dumps({"task": f"t{i}", "metric": "mae", "value": i + offset}))
    assert main(["compare", "--results-a", str(dirs[0]), "--results-b", str(dirs[1])]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["wins_a"], payload["wins_b"]) == (6, 0)


def test_compare_results_skips_a_task_missing_from_b_or_without_a_value(tmp_path, capsys):
    dirs = tmp_path / "a", tmp_path / "b"
    for d in dirs:
        d.mkdir()
    for i in range(8):
        (dirs[0] / f"t{i}.result.json").write_text(json.dumps({"task": f"t{i}", "metric": "mae", "value": i + 0.1}))
        value = None if i == 6 else i + 0.2
        if i != 7:
            (dirs[1] / f"t{i}.result.json").write_text(json.dumps({"task": f"t{i}", "metric": "mae", "value": value}))
    (dirs[0] / "t5.result.json").write_text(json.dumps({"task": "t5", "metric": "mae", "value": None}))
    assert main(["compare", "--results-a", str(dirs[0]), "--results-b", str(dirs[1])]) == 0
    payload = json.loads(capsys.readouterr().out)
    # t5 has no value in A, t6 none in B, and t7 has no B file.
    assert (payload["n"], payload["wins_a"], payload["wins_b"]) == (5, 5, 0)


def test_build_shot_split_discipline(tmp_path):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_toy_binary(manifests, data, "shotty", n=60)
    out = tmp_path / "out"
    assert main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--shots", "random3",
    ]) == 0
    splits = dict(
        line.split("\t") for line in (out / "shotty.splits.tsv").read_text().splitlines()
    )
    allowed = {"train": {"train"}, "valid": {"train"}, "test": {"train", "valid"}}
    for split in ("train", "valid", "test"):
        for line in (out / f"shotty.{split}.jsonl").read_text().splitlines():
            obj = json.loads(line)
            assert obj["shots"], obj
            for shot_id in obj["shots"]:
                assert splits[shot_id] in allowed[split]
                assert shot_id != obj["record_id"]


def test_evaluate_knn_shot_policy(tmp_path):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_toy_binary(manifests, data, "knnsh")
    out = tmp_path / "out"
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--stub", "majority", "--shots", "knn2",
    ])
    assert code == 0


def test_env_var_model_url(tmp_path, monkeypatch):
    manifests, data = _copy_cli_task(tmp_path)
    monkeypatch.setenv("TXF_MODEL_URL", "http://127.0.0.1:9/gen")
    # URL is unreachable; with the single record in train the test split is
    # empty, so evaluation completes with an undefined metric (exit 3) and
    # must NOT exit 1 for a missing model.
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 3


def test_stub_overrides_the_env_var_model_url(tmp_path, monkeypatch, capsys):
    # TXF_MODEL_URL is a fallback: with --stub it is not read, so its bad
    # scheme is no error and the stub's empty test split exits 3.
    manifests, data = _copy_cli_task(tmp_path)
    monkeypatch.setenv("TXF_MODEL_URL", "ftp://x")
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--stub", "majority",
    ])
    assert code == 3
    assert capsys.readouterr().err == ""


def _unwritable(tmp_path):
    """An --out path below a regular file, which no process can create."""
    (tmp_path / "file").write_text("")
    return str(tmp_path / "file" / "out")


def _build_unwritable_out(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    out = _unwritable(tmp_path)
    return ["build", "--manifests", str(manifests), "--data", str(data), "--out", out], out


def _evaluate_unwritable_out(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    out = _unwritable(tmp_path)
    return [
        "evaluate", "--manifests", str(manifests), "--data", str(data), "--out", out,
        "--stub", "echo",
    ], out


def _compare_unwritable_out(tmp_path):
    out = _unwritable(tmp_path)
    return [
        "compare", "--pairs", str(FIXTURES / "model_size_results.csv"),
        "--a-col", "model_s", "--b-col", "model_m", "--out", out,
    ], out


def _scoreboard_unwritable_out(tmp_path):
    out = _unwritable(tmp_path)
    return ["scoreboard", "--fixture", str(FIXTURES / "benchmark_results.csv"), "--out", out], out


def _contamination_unwritable_out(tmp_path):
    (tmp_path / "features.tsv").write_text("r1\tNEEDLE\n")
    (tmp_path / "corpus.txt").write_text("hay NEEDLE hay")
    out = _unwritable(tmp_path)
    return [
        "contamination", "--features", str(tmp_path / "features.tsv"),
        "--corpus", str(tmp_path / "corpus.txt"), "--out", out,
    ], out


def _manifest_latin1(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    path = manifests / "bbb_martins.manifest"
    path.write_bytes(b"# caf\xe9\n" + path.read_bytes())
    return [
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"),
    ], "bbb_martins.manifest: not UTF-8"


def _result_dirs(tmp_path, text_a):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d, text in ((dir_a, text_a), (dir_b, '{"task": "t", "metric": "auroc", "value": 0.5}')):
        d.mkdir()
        (d / "t.result.json").write_text(text)
    return ["compare", "--results-a", str(dir_a), "--results-b", str(dir_b)]


def _result_nan_value(tmp_path):
    # json.load reads NaN, which Python's json.dump writes for a float nan.
    return _result_dirs(tmp_path, '{"task": "t", "metric": "auroc", "value": NaN}'), (
        "t.result.json: not a result file: value nan is not a finite number or null"
    )


def _result_bool_value(tmp_path):
    return _result_dirs(tmp_path, '{"task": "t", "metric": "auroc", "value": true}'), (
        "t.result.json: not a result file: value True is not a finite number or null"
    )


def _results_metric_mismatch(tmp_path):
    # Six tasks, enough for the test, scored by auroc in A and by mae in B.
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d, metric, lower in ((dir_a, "auroc", "false"), (dir_b, "mae", "true")):
        d.mkdir()
        for i in range(6):
            (d / f"t{i}.result.json").write_text(
                f'{{"task": "t{i}", "metric": "{metric}", "lower_is_better": {lower}, "value": 0.{i + 1}}}'
            )
    return ["compare", "--results-a", str(dir_a), "--results-b", str(dir_b)], (
        f"task t0: scored by auroc (higher is better) in {dir_a} but mae (lower is better) in {dir_b}"
    )


def _manifest_repeated_key(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    path = manifests / "bbb_martins.manifest"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + ["metric: mae"]) + "\n", encoding="utf-8")
    return [
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"),
    ], f"bbb_martins.manifest:{len(lines) + 1}: repeated key 'metric'"


def _build_with_direction(tmp_path, word):
    """build argv for the CLI fixture, whose auroc manifest's lower_is_better
    line reads ``word``."""
    manifests, data = _copy_cli_task(tmp_path)
    path = manifests / "bbb_martins.manifest"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("lower_is_better: false\n", f"lower_is_better: {word}\n"), encoding="utf-8")
    return ["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]


def _manifest_direction_yes(tmp_path):
    return _build_with_direction(tmp_path, "yes"), "bbb_martins.manifest: lower_is_better is not true or false: 'yes'"


def _manifest_direction_contradicts_the_metric(tmp_path):
    return _build_with_direction(tmp_path, "TRUE"), (
        "bbb_martins.manifest: lower_is_better is true, but higher is better for metric 'auroc'"
    )


def _csv_case(command, header, row, expected):
    """A CSV of five good rows then ``row``, given to compare --pairs or
    scoreboard --fixture. The good rows spell the direction in mixed case."""
    def case(tmp_path):
        path = tmp_path / "in.csv"
        words = ["false", "FALSE", " False ", "False", "fAlSe"]
        rows = [header] + [f"t{i},auroc,{word},0.5,0.6" for i, word in enumerate(words)]
        path.write_bytes(("\n".join(rows) + "\n").encode("utf-8") + row + b"\n")
        flag = "--pairs" if command == "compare" else "--fixture"
        return [command, flag, str(path)], expected.format(path=path)

    return case


_PAIRS = "task,metric,lower_is_better,a,b"
_SCORES = "task,metric,lower_is_better,sota,model"
_pairs_latin1 = _csv_case("compare", _PAIRS, b"caf\xe9,auroc,false,0.5,0.6", "{path}: not UTF-8 text")
_scoreboard_latin1 = _csv_case("scoreboard", _SCORES, b"caf\xe9,auroc,false,0.5,0.6", "{path}: not UTF-8 text")
_pairs_not_a_number = _csv_case(
    "compare", _PAIRS, b"t5,auroc,false,abc,0.6", "{path}: row 6 column 'a' is not a finite number: 'abc'"
)
_pairs_nan = _csv_case(
    "compare", _PAIRS, b"t5,auroc,false,0.5,nan", "{path}: row 6 column 'b' is not a finite number: 'nan'"
)
_scoreboard_sota_not_a_number = _csv_case(
    "scoreboard", _SCORES, b"t5,auroc,false,abc,0.6", "{path}: row 6 column 'sota' is not a finite number: 'abc'"
)
_scoreboard_model_inf = _csv_case(
    "scoreboard", _SCORES, b"t5,auroc,false,0.5,inf", "{path}: row 6 column 'model' is not a finite number: 'inf'"
)
# No relative difference divides by a zero reference, and no error is negative.
_scoreboard_sota_zero = _csv_case(
    "scoreboard", _SCORES, b"t5,auroc,false,0,0.6", "{path}: row 6 column 'sota' is zero, so no relative difference: '0'"
)
_scoreboard_negative_mae = _csv_case(
    "scoreboard", _SCORES, b"t1,mae,true,-1,0.5", "{path}: row 6 column 'sota' is a negative mae: '-1'"
)
_scoreboard_negative_model_mse = _csv_case(
    "scoreboard", _SCORES, b"t5,MSE,true,1,-0.5", "{path}: row 6 column 'model' is a negative MSE: '-0.5'"
)

# The direction cell is true or false in any case; nothing else reads as false.
_pairs_direction_yes = _csv_case(
    "compare", _PAIRS, b"t5,mae,yes,0.5,0.6", "{path}: row 6 column 'lower_is_better' is not true or false: 'yes'"
)
_scoreboard_direction_one = _csv_case(
    "scoreboard", _SCORES, b"t5,auroc,1,0.5,0.6", "{path}: row 6 column 'lower_is_better' is not true or false: '1'"
)


# A direction that contradicts a metric txf knows is rejected, not obeyed.
_pairs_direction_contradicts_the_metric = _csv_case(
    "compare", _PAIRS, b"t5,mae,false,0.5,0.6",
    "{path}: row 6 column 'lower_is_better' is false, but lower is better for metric 'mae'",
)
_scoreboard_direction_contradicts_the_metric = _csv_case(
    "scoreboard", _SCORES, b"t5,auroc,True,0.5,0.6",
    "{path}: row 6 column 'lower_is_better' is true, but higher is better for metric 'auroc'",
)

# A tie_winner cell is a or b in any case; anything else is not dropped.
_pairs_tie_winner_c = _csv_case(
    "compare", _PAIRS + ",tie_winner", b"t5,auroc,false,0.5,0.5,c",
    "{path}: row 6 column 'tie_winner' is not a or b: 'c'",
)


def _pairs_metric_in_upper_case(tmp_path):
    # A known metric in another case keeps its own direction: MAE is mae.
    path = tmp_path / "in.csv"
    rows = [_PAIRS] + [f"t{i},MAE,false,0.{i},0.{i}5" for i in range(6)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["compare", "--pairs", str(path)], (
        f"{path}: row 1 column 'lower_is_better' is false, but lower is better for metric 'MAE'"
    )


def _result_direction_contradicts_the_metric(tmp_path):
    text = '{"task": "t", "metric": "mae", "lower_is_better": false, "value": 0.5}'
    return _result_dirs(tmp_path, text), "t.result.json: lower_is_better is false, but lower is better for metric 'mae'"


def _result_task_not_a_string(tmp_path):
    text = '{"task": ["t"], "metric": "auroc", "value": 0.5}'
    return _result_dirs(tmp_path, text), "t.result.json: not a result file: task and metric must be strings"


def _result_metric_not_a_string(tmp_path):
    text = '{"task": "t", "metric": ["mae"], "value": 0.5}'
    return _result_dirs(tmp_path, text), "t.result.json: not a result file: task and metric must be strings"


def _result_direction_string(tmp_path):
    text = '{"task": "t", "metric": "auroc", "lower_is_better": "false", "value": 0.5}'
    return _result_dirs(tmp_path, text), (
        "t.result.json: not a result file: lower_is_better 'false' is not true or false"
    )


def _result_direction_number(tmp_path):
    text = '{"task": "t", "metric": "auroc", "lower_is_better": 0, "value": 0.5}'
    return _result_dirs(tmp_path, text), "t.result.json: not a result file: lower_is_better 0 is not true or false"


def _result_truncated(tmp_path):
    return _result_dirs(tmp_path, '{"task": "t", "metric": "au'), "t.result.json"


def _result_without_value(tmp_path):
    return _result_dirs(tmp_path, '{"task": "t", "metric": "auroc"}'), "t.result.json"


def _pairs_unknown_column(tmp_path):
    return [
        "compare", "--pairs", str(FIXTURES / "model_size_results.csv"), "--a-col", "nope",
    ], "model_size_results.csv: missing columns ['nope', 'b']"


def _pairs_short_row(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("task,metric,lower_is_better,a,b\nt1,auroc\n")
    return ["compare", "--pairs", str(pairs)], "pairs.csv: row 1 has fewer cells"


def _missing_required_flag(tmp_path):
    return ["scoreboard"], "--fixture"


def _contamination_features_latin1(tmp_path):
    (tmp_path / "features.tsv").write_bytes(b"r1\tcaf\xe9\n")
    (tmp_path / "corpus.txt").write_text("hay")
    return [
        "contamination", "--features", str(tmp_path / "features.tsv"),
        "--corpus", str(tmp_path / "corpus.txt"),
    ], "features.tsv: not UTF-8"


def _model_url_not_http(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    return [
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--model-url", "ftp://x",
    ], "bad model URL 'ftp://x'"


def _build_random0(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    return [
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--shots", "random0",
    ], "bad shot policy 'random0'"


def _build_knn0(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    return [
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--shots", "knn0",
    ], "bad shot policy 'knn0'"


def _build_negative_mixture(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    return [
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--mixture", "-5",
    ], "--mixture must be at least 0, not -5"


def _contamination_max_chars(value):
    def case(tmp_path):
        (tmp_path / "features.tsv").write_text("r1\tCCO\n")
        (tmp_path / "corpus.txt").write_text("xxCCNxx")
        return [
            "contamination", "--features", str(tmp_path / "features.tsv"),
            "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "out"),
            "--max-chars", str(value),
        ], f"max_chars must be at least 1, not {value}"

    return case


_contamination_max_chars_negative = _contamination_max_chars(-1)
_contamination_max_chars_zero = _contamination_max_chars(0)


def _build_tasks(tmp_path, *tasks):
    manifests, data = _copy_cli_task(tmp_path)
    argv = ["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]
    for task in tasks:
        argv += ["--task", task]
    return argv, f"no .manifest file under {manifests} for --task nosuch"


def _only_unknown_task(tmp_path):
    return _build_tasks(tmp_path, "nosuch")


def _known_and_unknown_task(tmp_path):
    # The typo must not be dropped while the known task builds.
    return _build_tasks(tmp_path, "bbb_martins", "nosuch")


def _evaluate_concurrency_zero(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    return [
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--stub", "majority", "--concurrency", "0",
    ], "--concurrency must be at least 1, not 0"


def _compare_missing_results_dir(tmp_path):
    (tmp_path / "a").mkdir()
    missing = tmp_path / "b"
    return [
        "compare", "--results-a", str(tmp_path / "a"), "--results-b", str(missing),
    ], f"results directory {missing} does not exist"


def _build_argv(tmp_path, manifests, data):
    return ["build", "--manifests", str(manifests), "--data", str(data), "--out", str(tmp_path / "out")]


def _edited_cli_task(tmp_path, old, new):
    """build argv for a copy of the CLI fixture with ``old`` in its manifest
    replaced by ``new``."""
    manifests, data = _copy_cli_task(tmp_path)
    path = manifests / "bbb_martins.manifest"
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return _build_argv(tmp_path, manifests, data)


def _manifest_unknown_key(tmp_path):
    # A misspelled optional key would otherwise be dropped without a word.
    argv = _edited_cli_task(tmp_path, "BBB\n", "BBB\nsubtask_colum: Assay\n")
    return argv, "bbb_martins.manifest:15: unknown key 'subtask_colum'"


def _manifest_role_key_of_an_undeclared_role(tmp_path):
    argv = _edited_cli_task(tmp_path, "role.drug.kind", "role.target.kind: amino_acid\nrole.drug.kind")
    return argv, "bbb_martins.manifest:9: unknown key 'role.target.kind'"


def _manifest_metric_of_another_kind(tmp_path):
    argv = _edited_cli_task(tmp_path, "metric: auroc\nlower_is_better: false", "metric: mae")
    argv[0] = "evaluate"
    return argv + ["--stub", "knn"], "bbb_martins: metric 'mae' cannot score a binary task"


def _manifest_task_id_not_the_file_name(tmp_path):
    argv = _edited_cli_task(tmp_path, "task_id: bbb_martins", "task_id: ../escaped")
    return argv, "bbb_martins.manifest: task_id '../escaped' is not the file's name 'bbb_martins'"


def _manifest_combination_roles_one_name(tmp_path):
    argv = _edited_cli_task(tmp_path, "roles: drug", "roles: drug\ncombination_roles: drug")
    return argv, "bbb_martins.manifest: combination_roles needs exactly two names"


def _missing_directory(what):
    def case(tmp_path):
        dirs = dict(zip(("manifest", "data"), _copy_cli_task(tmp_path)))
        missing = dirs[what] = tmp_path / "nosuch"
        return _build_argv(tmp_path, dirs["manifest"], dirs["data"]), f"{what} directory {missing} does not exist"

    return case


_manifest_directory_missing = _missing_directory("manifest")
_data_directory_missing = _missing_directory("data")


def _no_manifest_files(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    (manifests / "bbb_martins.manifest").unlink()
    return _build_argv(tmp_path, manifests, data), f"no *.manifest files under {manifests}"


def _no_table(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    (data / "bbb_martins.tsv").unlink()
    return _build_argv(tmp_path, manifests, data), f"bbb_martins: no table under {data}"


def _empty_table(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    (data / "bbb_martins.tsv").write_text("")
    return _build_argv(tmp_path, manifests, data), "bbb_martins.tsv: empty file"


def _contamination_features_only_comments(tmp_path):
    (tmp_path / "features.tsv").write_text("# id\tfeature\n\n# nothing else\n")
    (tmp_path / "corpus.txt").write_text("hay")
    return [
        "contamination", "--features", str(tmp_path / "features.tsv"),
        "--corpus", str(tmp_path / "corpus.txt"),
    ], "features.tsv: features file is empty"


def _contamination_features(lines, expected):
    def case(tmp_path):
        (tmp_path / "features.tsv").write_text("".join(f"{line}\n" for line in lines))
        (tmp_path / "corpus.txt").write_text("xxCCOxx")
        return [
            "contamination", "--features", str(tmp_path / "features.tsv"),
            "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "out"),
        ], f"features.tsv:{expected}"

    return case


# Two tasks' features files concatenated with ids 0, 1, ... would otherwise
# merge their records into one flag each.
_contamination_repeated_record_id = _contamination_features(
    ["# id\tfeature", "r1\tCCO", "r1\tCCN", "r2"], "3: record id 'r1' repeats line 2"
)
_contamination_empty_record_id = _contamination_features(["r1\tCCO", "\tCCC", "r2"], "2: empty record id")


def _results_no_overlap(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d, task in ((dir_a, "t"), (dir_b, "u")):
        d.mkdir()
        (d / f"{task}.result.json").write_text(f'{{"task": "{task}", "metric": "auroc", "value": 0.5}}')
    return ["compare", "--results-a", str(dir_a), "--results-b", str(dir_b)], (
        "no overlapping task results to compare"
    )


def _evaluate_stub_and_model_url(tmp_path):
    manifests, data = _copy_cli_task(tmp_path)
    return [
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--stub", "majority", "--model-url", "http://127.0.0.1:9/generate",
    ], "argument --model-url: not allowed with argument --stub"


def _compare_pairs_and_results_dirs(tmp_path):
    return [
        "compare", "--pairs", str(FIXTURES / "model_size_results.csv"), "--a-col", "model_s", "--b-col", "model_m",
        "--results-a", str(tmp_path / "a"), "--results-b", str(tmp_path / "b"), "--out", str(tmp_path / "out"),
    ], "--pairs cannot be given with --results-a or --results-b"


def _compare_one_results_dir(tmp_path):
    (tmp_path / "a").mkdir()
    return ["compare", "--results-a", str(tmp_path / "a")], "need --pairs or both --results-a and --results-b"


def _bound_name(case):
    """The name a case is bound to in this module, its test id: a case made
    by a factory is a closure named ``case``, which names no input."""
    return next(name for name, value in globals().items() if value is case)


@pytest.mark.parametrize("case", [
    _build_unwritable_out,
    _evaluate_unwritable_out,
    _compare_unwritable_out,
    _scoreboard_unwritable_out,
    _contamination_unwritable_out,
    _manifest_latin1,
    _result_truncated,
    _result_without_value,
    _pairs_unknown_column,
    _pairs_short_row,
    _missing_required_flag,
    _contamination_features_latin1,
    _model_url_not_http,
    _build_random0,
    _build_knn0,
    _build_negative_mixture,
    _contamination_max_chars_negative,
    _contamination_max_chars_zero,
    _only_unknown_task,
    _known_and_unknown_task,
    _evaluate_concurrency_zero,
    _compare_missing_results_dir,
    _result_nan_value,
    _result_bool_value,
    _results_metric_mismatch,
    _manifest_repeated_key,
    _pairs_latin1,
    _scoreboard_latin1,
    _pairs_not_a_number,
    _pairs_nan,
    _scoreboard_sota_not_a_number,
    _scoreboard_model_inf,
    _scoreboard_sota_zero,
    _scoreboard_negative_mae,
    _scoreboard_negative_model_mse,
    _pairs_direction_yes,
    _scoreboard_direction_one,
    _result_direction_string,
    _result_direction_number,
    _manifest_direction_yes,
    _manifest_direction_contradicts_the_metric,
    _pairs_direction_contradicts_the_metric,
    _pairs_metric_in_upper_case,
    _scoreboard_direction_contradicts_the_metric,
    _result_direction_contradicts_the_metric,
    _result_task_not_a_string,
    _result_metric_not_a_string,
    _manifest_unknown_key,
    _manifest_role_key_of_an_undeclared_role,
    _manifest_metric_of_another_kind,
    _manifest_task_id_not_the_file_name,
    _manifest_combination_roles_one_name,
    _manifest_directory_missing,
    _data_directory_missing,
    _no_manifest_files,
    _no_table,
    _empty_table,
    _contamination_features_only_comments,
    _results_no_overlap,
    _compare_one_results_dir,
    _pairs_tie_winner_c,
    _evaluate_stub_and_model_url,
    _compare_pairs_and_results_dirs,
    _contamination_repeated_record_id,
    _contamination_empty_record_id,
], ids=_bound_name)
def test_bad_input_exits_1_with_one_error_line(tmp_path, capsys, case):
    argv, expected = case(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith("error: ") and expected in line
    assert "Traceback" not in err
    if case in (
        _build_random0,
        _build_knn0,
        _build_negative_mixture,
        _contamination_max_chars_negative,
        _contamination_max_chars_zero,
        _contamination_repeated_record_id,
        _contamination_empty_record_id,
        _only_unknown_task,
        _known_and_unknown_task,
        _evaluate_concurrency_zero,
        _manifest_directory_missing,
        _data_directory_missing,
        _no_manifest_files,
        _evaluate_stub_and_model_url,
        _compare_pairs_and_results_dirs,
    ):
        # The option is rejected before anything is written.
        assert not (tmp_path / "out").exists()


def test_a_task_id_other_than_the_file_name_reads_and_writes_nothing(tmp_path, capsys):
    # A task id names the table read and the files written, so "../escaped"
    # would read and write beside --data and --out.
    argv, _ = _manifest_task_id_not_the_file_name(tmp_path)
    shutil.copy(tmp_path / "data" / "bbb_martins.tsv", tmp_path / "escaped.tsv")
    before = sorted(tmp_path.rglob("*"))
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("builtins.open", recording_open)
        assert main(argv) == 1
    assert "is not the file's name" in capsys.readouterr().err
    assert opened == ["bbb_martins.manifest"]
    assert sorted(tmp_path.rglob("*")) == sorted([*before, tmp_path / "out"])


def test_build_knn_shares_one_index_per_shot_pool(tmp_path, monkeypatch):
    from knn_reference import naive_nearest
    from txf import corpus, promptgen

    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_toy_binary(manifests, data, "knnpool", n=40)
    real = promptgen.NeighborIndex
    built = []

    def counting_index(manifest, pool, table):
        built.append(len(pool))
        return real(manifest, pool, table)

    monkeypatch.setattr(promptgen, "NeighborIndex", counting_index)
    out = tmp_path / "out"
    assert main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--seed", "2", "--shots", "knn3",
    ]) == 0
    # train and valid draw from the train pool, test from train + valid.
    assert len(built) == 2

    # Every split's shots are the naive scan's top 3 over that split's pool.
    manifest = corpus.read_manifest(manifests / "knnpool.manifest")
    loaded = corpus.load_table(data / "knnpool.tsv", manifest)
    records = corpus.assign_splits(loaded.records, manifest, seed=2, table=corpus.FeatureTable())
    by_id = {r.record_id: r for r in records}
    for split, sources in (("train", {"train"}), ("valid", {"train"}), ("test", {"train", "valid"})):
        pool = [r for r in records if r.split in sources]
        lines = (out / f"knnpool.{split}.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            query = by_id[obj["record_id"]]
            expected = naive_nearest(manifest, query, pool, 3, exclude_id=query.record_id)
            assert obj["shots"] == [pool[i].record_id for i, _ in expected]


@pytest.mark.parametrize("shots", ["knn3", "random3"])
def test_evaluate_knn_stub_reuses_the_shot_index(tmp_path, monkeypatch, shots):
    import csv

    from knn_reference import naive_nearest
    from txf import corpus, evalharness, promptgen

    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_toy_binary(manifests, data, "knnev", n=40)
    real = promptgen.NeighborIndex
    built = []

    def counting_index(manifest, pool, table):
        built.append(len(pool))
        return real(manifest, pool, table)

    monkeypatch.setattr(promptgen, "NeighborIndex", counting_index)
    monkeypatch.setattr(evalharness, "NeighborIndex", counting_index)
    out = tmp_path / "out"
    code = main([
        "evaluate", "--manifests", str(manifests), "--data", str(data),
        "--out", str(out), "--seed", "2", "--shots", shots, "--stub", "knn",
    ])
    assert code == 0
    # knn shots build the index the stub reuses; random shots build none,
    # so the knn stub's branch builds it.
    assert len(built) == 1

    # Each answer is the target of the naive scan's nearest pool record.
    manifest = corpus.read_manifest(manifests / "knnev.manifest")
    loaded = corpus.load_table(data / "knnev.tsv", manifest)
    records = corpus.assign_splits(loaded.records, manifest, seed=2, table=corpus.FeatureTable())
    pool = [r for r in records if r.split in ("train", "valid")]
    by_id = {r.record_id: r for r in records}
    with open(out / "knnev.rows.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        [(best, _)] = naive_nearest(manifest, by_id[row["record_id"]], pool, 1)
        assert row["completion"] == promptgen.render_target(pool[best], manifest)


def _mol_knn(root, seed):
    """The benchmark's mol-knn workload: one scaffold-split SMILES task of
    45 records, 43 distinct strings at seed 1. Its generator imports
    nothing from txf."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while the class bodies run.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.generate("mol-knn", seed, root)


@pytest.mark.parametrize("command", [
    ["build", "--shots", "knn10"],
    ["evaluate", "--shots", "0", "--stub", "knn"],
    ["evaluate", "--shots", "knn10", "--stub", "knn"],
    ["evaluate", "--shots", "0", "--stub", "knn", "--concurrency", "8"],
])
def test_command_converts_each_distinct_smiles_once(tmp_path, monkeypatch, command):
    from txf import chem

    workload = _mol_knn(tmp_path / "in", seed=1)
    table = (workload.data / "mol_bbb.tsv").read_text(encoding="utf-8").splitlines()[1:]
    distinct = {line.split("\t")[0] for line in table}
    # The knn stub converts its queries from worker threads.
    lock = threading.Lock()
    parsed, fingerprinted, molecules = Counter(), Counter(), []
    parse, fingerprint = chem.parse_smiles, chem.morgan_fingerprint

    def counting_parse(text):
        with lock:
            parsed[text] += 1
        return parse(text)

    def counting_fingerprint(mol):
        with lock:
            molecules.append(mol)  # held, so no id is reused
            fingerprinted[id(mol)] += 1
        return fingerprint(mol)

    monkeypatch.setattr(chem, "parse_smiles", counting_parse)
    monkeypatch.setattr(chem, "morgan_fingerprint", counting_fingerprint)
    assert main([
        command[0], "--manifests", str(workload.manifests), "--data", str(workload.data),
        "--out", str(tmp_path / "out"), "--seed", "1", *command[1:],
    ]) == 0
    assert parsed and fingerprinted
    assert set(parsed) <= distinct
    assert max(parsed.values()) == 1 and max(fingerprinted.values()) == 1
    assert sum(parsed.values()) <= len(distinct) <= 43


def test_evaluate_reuses_one_connection_across_tasks(tmp_path):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    for k in range(3):
        _write_toy_binary(manifests, data, f"task{k}", n=30)
    with serving(CountingServer()) as server:
        code = main([
            "evaluate", "--manifests", str(manifests), "--data", str(data),
            "--out", str(tmp_path / "out"), "--model-url", server.url, "--concurrency", "1",
        ])
    assert code == 0
    assert len(server.prompts) == sum(
        len((tmp_path / "out" / f"task{k}.rows.csv").read_text().splitlines()) - 1 for k in range(3)
    )
    assert server.connections == 1


@pytest.mark.parametrize("argv", [["--help"], ["build", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: txf")


_MODULES_AFTER_MAIN = """
import json, sys
from txf.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

_NEITHER_CHEM_NOR_NUMPY = {"numpy", "txf.chem", "txf.corpus", "txf.promptgen", "txf.evalharness"}


def _build_zero_shot(tmp_path):
    return [
        "build", "--manifests", str(FIXTURES / "cli_task" / "manifests"),
        "--data", str(FIXTURES / "cli_task" / "data"), "--out", str(tmp_path / "out"), "--shots", "0",
    ], {"numpy", "txf.evalharness", "txf.analysis"}


# The contamination command runs once per dataset, so it loads the scan alone,
# not csv and the scoreboard code. typing is not pinned: a site module may
# load it before txf runs.
_NOT_FOR_THE_SCAN = {"csv", "txf.ranks", "txf.analysis"}


def _contamination_of_the_table(tmp_path):
    table = FIXTURES / "cli_task" / "data" / "bbb_martins.tsv"
    smiles = table.read_text(encoding="utf-8").splitlines()[1].split("\t")[0]
    (tmp_path / "features.tsv").write_text(f"0\t{smiles}\n", encoding="utf-8")
    return [
        "contamination", "--features", str(tmp_path / "features.tsv"), "--corpus", str(table),
        "--out", str(tmp_path / "flags.tsv"),
    ], _NEITHER_CHEM_NOR_NUMPY | _NOT_FOR_THE_SCAN


def _scoreboard(tmp_path):
    return ["scoreboard", "--fixture", str(FIXTURES / "benchmark_results.csv")], _NEITHER_CHEM_NOR_NUMPY


# Model calls run on plain threads, so no evaluation loads concurrent.futures
# with its logging; a stub evaluation does not load the HTTP client either.
_NO_EXECUTOR = {"concurrent.futures", "logging"}
_NOT_FOR_A_STUB = _NO_EXECUTOR | {"txf.transport"}


def _evaluate_majority(tmp_path):
    # Not the one-row CLI fixture: its test split is empty, so no metric would run.
    (tmp_path / "manifests").mkdir()
    (tmp_path / "data").mkdir()
    _write_toy_binary(tmp_path / "manifests", tmp_path / "data", "task0")
    return [
        "evaluate", "--manifests", str(tmp_path / "manifests"), "--data", str(tmp_path / "data"),
        "--out", str(tmp_path / "out"), "--stub", "majority",
    ], {"numpy"} | _NOT_FOR_A_STUB


def _compare_pairs(tmp_path):
    return [
        "compare", "--pairs", str(FIXTURES / "model_size_results.csv"), "--a-col", "model_s", "--b-col", "model_m",
    ], _NEITHER_CHEM_NOR_NUMPY


def _write_toy_cold_start(manifests, data, task_id):
    """A binary drug-target task split cold-start on its amino-acid role,
    which comes before its SMILES role: 20 targets of two records, one of
    each label, so the test split holds both labels."""
    (manifests / f"{task_id}.manifest").write_text(
        f"task_id: {task_id}\n"
        "task_kind: binary\n"
        "metric: auroc\n"
        "split_method: cold_start\n"
        "cold_start_role: target\n"
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
    residues = "ACDEFGHIKLMNPQRSTVWY"
    lines = ["Target\tDrug\tY"]
    for i in range(40):
        t = i % 20
        lines.append(f"MKT{residues[t]}{residues[3 * t % 20]}LLEV\t{'C' * (1 + i % 5)}N\t{i // 20}")
    (data / f"{task_id}.tsv").write_text("\n".join(lines) + "\n")


def _task_dirs(tmp_path, write):
    (tmp_path / "manifests").mkdir()
    (tmp_path / "data").mkdir()
    write(tmp_path / "manifests", tmp_path / "data", "task0")
    return ["--manifests", str(tmp_path / "manifests"), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]


# None of the next three converts a SMILES string, so none loads txf.chem.


def _build_cold_start_amino_acid_knn(tmp_path):
    return ["build", *_task_dirs(tmp_path, _write_toy_cold_start), "--shots", "knn3"], {"numpy", "txf.chem"}


def _evaluate_knn_stub_cold_start(tmp_path):
    return ["evaluate", *_task_dirs(tmp_path, _write_toy_cold_start), "--stub", "knn"], {
        "numpy", "txf.chem",
    } | _NOT_FOR_A_STUB


def _build_random_split_zero_shot(tmp_path):
    return ["build", *_task_dirs(tmp_path, _write_toy_binary), "--shots", "0"], {"numpy", "txf.chem", "txf.evalharness"}


_MODEL_URL = "<model url>"  # the test puts its loopback server's URL here


def _evaluate_model_url(tmp_path):
    # The client speaks HTTP/1.1 on a socket, so an http:// URL loads neither
    # http.client, with its email header parser, nor ssl.
    return ["evaluate", *_task_dirs(tmp_path, _write_toy_binary), "--model-url", _MODEL_URL], {
        "http.client", "email.parser", "ssl", "numpy",
    } | _NO_EXECUTOR


@pytest.mark.parametrize(
    "case",
    [
        _build_zero_shot,
        _contamination_of_the_table,
        _scoreboard,
        _evaluate_majority,
        _compare_pairs,
        _build_cold_start_amino_acid_knn,
        _evaluate_knn_stub_cold_start,
        _build_random_split_zero_shot,
        _evaluate_model_url,
    ],
)
def test_command_loads_only_the_layers_it_runs(tmp_path, case):
    argv, absent = case(tmp_path)
    # A fresh interpreter, so modules the test session imported do not count.
    src = str(Path(txf.__file__).resolve().parents[1])
    with serving(CountingServer()) as server:
        done = subprocess.run(
            [sys.executable, "-c", _MODULES_AFTER_MAIN, *[server.url if a == _MODEL_URL else a for a in argv]],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
    assert bool(server.prompts) == (_MODEL_URL in argv)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["code"] == 0
    # txf's value classes are plain __slots__ classes, so no command loads
    # dataclasses with inspect.
    assert (absent | {"dataclasses", "inspect"}) & set(report["modules"]) == set()


_EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "delete", "insert"]), st.integers(0, 10**6), st.integers(0, 255)),
    max_size=4,
)


def _edit(data: bytes, edits) -> bytes:
    """Applies (operation, position, byte) edits; positions wrap around."""
    buf = bytearray(data)
    for op, pos, byte in edits:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and op == "delete":
            del buf[pos % len(buf)]
        elif buf:
            buf[pos % len(buf)] ^= byte or 1
    return bytes(buf)


def _run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(manifest_edits=_EDITS, table_edits=_EDITS)
def test_byte_edited_cli_fixture_never_crashes(manifest_edits, table_edits):
    """build and evaluate on a damaged manifest or table exit 0, 1 or 3 with
    nothing but error: lines on stderr; a crash raises out of main."""
    with tempfile.TemporaryDirectory() as tmp:
        manifests, data = _copy_cli_task(Path(tmp))
        for path, edits in ((manifests / "bbb_martins.manifest", manifest_edits), (data / "bbb_martins.tsv", table_edits)):
            path.write_bytes(_edit(path.read_bytes(), edits))
        common = ["--manifests", str(manifests), "--data", str(data), "--out", str(Path(tmp) / "out")]
        for argv in (["build", *common, "--shots", "knn3"], ["evaluate", *common, "--stub", "majority"]):
            code, err = _run_main(argv)
            assert type(code) is int and code in (0, 1, 3), (argv[0], code, err)
            assert all(line.startswith("error: ") for line in err.splitlines()), (argv[0], err)
