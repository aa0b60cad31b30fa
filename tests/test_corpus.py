import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MOLECULE_CORPUS, permute_molecule
from split_reference import grouped_splits
from txf import corpus
from txf.corpus import (
    ROLE_KINDS,
    SPLIT_METHODS,
    TASK_KINDS,
    CorpusError,
    DataRecord,
    FeatureTable,
    RoleSpec,
    TaskManifest,
    assign_splits,
    fit_label_range,
    load_table,
    read_manifest,
    write_manifest,
    write_split_audit,
)
from txf.promptgen import render_target
from txf.ranks import KIND_METRICS


def _binary_manifest(**overrides):
    base = dict(
        task_id="toy",
        task_kind="binary",
        roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
        instruction="Answer the question.",
        context="Some context.",
        question="Is it active?\n\n(A) no (B) yes",
        label_column="Y",
        metric="auroc",
        split_method="random",
    )
    base.update(overrides)
    return TaskManifest(**base)


def _records(n, prefix="r", feature="drug"):
    return [
        DataRecord(f"{prefix}{i}", {feature: f"C{'C' * (i % 5)}"}, bool(i % 2))
        for i in range(n)
    ]


def test_load_table_basic(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("Drug\tY\nCCO\t1\nCC\t0\nCCC\t1\n")
    loaded = load_table(path, _binary_manifest())
    assert len(loaded.records) == 3
    assert loaded.dropped == 0
    assert loaded.records[0].label is True
    assert loaded.records[1].label is False


def test_load_table_drops_incomplete_rows(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("Drug\tY\nCCO\t1\nCC\t\n\t0\n")
    loaded = load_table(path, _binary_manifest())
    assert len(loaded.records) == 1
    assert loaded.dropped == 2


def test_load_table_missing_column(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("Smiles\tY\nCCO\t1\n")
    with pytest.raises(CorpusError):
        load_table(path, _binary_manifest())


def test_load_table_no_usable_rows(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("Drug\tY\nCCO\t\n")
    with pytest.raises(CorpusError):
        load_table(path, _binary_manifest())


def test_load_table_csv_delimiter(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("Drug,Y\nCCO,1\n")
    loaded = load_table(path, _binary_manifest())
    assert len(loaded.records) == 1


@pytest.mark.parametrize("kind", ["binary", "regression"])
def test_load_table_drops_non_finite_numeric_labels(tmp_path, kind):
    path = tmp_path / "toy.tsv"
    path.write_text("Drug\tY\nCCO\t1\nCC\tnan\nCCC\tinf\nCCCC\t-Infinity\nCCN\t0\n")
    manifest = _binary_manifest(task_kind=kind, metric=KIND_METRICS[kind][0], label_range=(0.0, 1.0))
    loaded = load_table(path, manifest)
    assert [r.features["drug"] for r in loaded.records] == ["CCO", "CCN"]
    assert loaded.dropped == 3


@pytest.mark.parametrize("name", ["toy.tsv", "toy.txt"])
def test_load_table_not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"Drug\tY\nCC\xffO\t1\n")
    with pytest.raises(CorpusError, match="not UTF-8"):
        load_table(path, _binary_manifest())


def test_random_split_deterministic():
    manifest = _binary_manifest()
    records = _records(10)
    first = assign_splits(records, manifest, seed=1, table=FeatureTable())
    counts = {s: sum(1 for r in first if r.split == s) for s in ("train", "valid", "test")}
    assert counts == {"train": 8, "valid": 1, "test": 1}
    second = assign_splits(records, manifest, seed=1, table=FeatureTable())
    assert [r.split for r in first] == [r.split for r in second]
    different = assign_splits(records, manifest, seed=2, table=FeatureTable())
    assert [r.split for r in first] != [r.split for r in different]


def test_split_partition_properties():
    manifest = _binary_manifest()
    records = _records(53)
    out = assign_splits(records, manifest, seed=7, table=FeatureTable())
    assert len(out) == 53
    assert {r.record_id for r in out} == {r.record_id for r in records}
    n_train = sum(1 for r in out if r.split == "train")
    n_valid = sum(1 for r in out if r.split == "valid")
    n_test = sum(1 for r in out if r.split == "test")
    assert n_train + n_valid + n_test == 53
    assert abs(n_train - 0.8 * 53) <= 1
    assert abs(n_valid - 0.1 * 53) <= 1
    assert abs(n_test - 0.1 * 53) <= 1


def test_scaffold_split_groups_never_straddle():
    manifest = _binary_manifest(split_method="scaffold")
    smiles = [
        "CCc1ccccc1", "CCCc1ccccc1", "CCCCc1ccccc1",  # benzene scaffold
        "CCc1ccncc1", "CCCc1ccncc1",                   # pyridine scaffold
        "CC1CCCCC1", "CCC1CCCCC1",                     # cyclohexane scaffold
        "CCO", "CCCO", "CCCCO",                        # acyclic
    ]
    records = [DataRecord(str(i), {"drug": s}, True) for i, s in enumerate(smiles)]
    out = assign_splits(records, manifest, seed=1, table=FeatureTable())
    from txf.chem import parse_smiles, scaffold_key

    by_scaffold = {}
    for r in out:
        by_scaffold.setdefault(scaffold_key(parse_smiles(r.features["drug"])), set()).add(r.split)
    for splits in by_scaffold.values():
        assert len(splits) == 1


def test_feature_table_entries_equal_the_chem_and_bioseq_values():
    from txf.bioseq import BioSequence
    from txf.chem import morgan_fingerprint, parse_smiles, scaffold_key

    table = FeatureTable()
    mol = table.molecule("c1ccccc1CCO")
    assert table.molecule("c1ccccc1CCO") is mol
    assert table.fingerprint("c1ccccc1CCO") == morgan_fingerprint(parse_smiles("c1ccccc1CCO"))
    assert table.scaffold_key("c1ccccc1CCO") == scaffold_key(mol) != ""
    assert table.scaffold_key("CCO") == ""  # acyclic
    assert table.molecule("C1CC(") is None
    assert table.fingerprint("C1CC(") is None
    assert table.scaffold_key("C1CC(") == ""
    assert table.sequence("acgu", "nucleotide") == BioSequence("ACGU", "nucleotide")
    assert table.sequence("ACGU", "amino_acid") is None  # no U among amino acids
    assert table.sequence("ACGT", "amino_acid") == BioSequence("ACGT", "amino_acid")
    assert table.sequence("ACGB", "nucleotide") is None


def test_feature_table_converts_each_string_once_under_threads(monkeypatch):
    import sys
    import threading
    import time
    from collections import Counter

    from txf import chem

    calls = Counter()
    parse, fingerprint = chem.parse_smiles, chem.morgan_fingerprint

    def slow(counted, key):
        def wrapper(value):
            calls[counted, key(value)] += 1
            time.sleep(0.005)  # lets another thread run into the same entry
            return (parse if counted == "parse" else fingerprint)(value)

        return wrapper

    monkeypatch.setattr(chem, "parse_smiles", slow("parse", lambda text: text))
    monkeypatch.setattr(chem, "morgan_fingerprint", slow("fingerprint", id))
    table = FeatureTable()
    strings = ["CCO", "c1ccccc1O", "CCN", "C1CC("]
    start = threading.Barrier(8, timeout=10)

    def worker(n):
        start.wait()
        for text in strings[n % 4 :] + strings[: n % 4]:
            table.fingerprint(text)
            table.scaffold_key(text)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(text for what, text in calls if what == "parse") == sorted(strings)
    assert len(calls) == len(strings) + 3 and max(calls.values()) == 1


def test_scaffold_split_writes_each_distinct_scaffold_once(monkeypatch, fresh_component_memo):
    from txf import chem
    from txf.chem import scaffold

    written = []  # the string of each canonical component search
    write = chem.write_canonical
    search = chem.smiles._canonical_search

    def counting_search(*args):
        written.append(search(*args))
        return written[-1]

    monkeypatch.setattr(chem.smiles, "_canonical_search", counting_search)
    # Three decorated members of each of two series, each series sharing one
    # scaffold Molecule, plus an acyclic and an unparseable feature.
    series = ["c1ccc2ccccc2c1", "O=C1CN=C(c2ccccc2)c2cc(Cl)ccc2N1"]
    smiles = [head + core for core in series for head in ("C", "CC", "OCC")] + ["CCO", "C1CC("]
    records = [DataRecord(str(i), {"drug": s}, True) for i, s in enumerate(smiles * 2)]
    table = FeatureTable()
    assign_splits(records, _binary_manifest(split_method="scaffold"), seed=1, table=table)
    assert len(written) == 2 and written[0] != written[1]
    keys = [table.scaffold_key(text) for text in smiles]
    assert len(written) == 2
    assert keys == [write(scaffold.murcko_scaffold(chem.parse_smiles(text))) for text in smiles[:6]] + ["", ""]


def _respell(mol):
    """A SMILES of ``mol`` written in its own atom order."""
    from txf.chem.smiles import _direction_clusters, _emit

    adj = mol.neighbors()
    return ".".join(
        _emit(mol, adj, comp, {a: a for a in comp}, _direction_clusters(mol, comp))[0]
        for comp in mol.components()
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(MOLECULE_CORPUS),
            st.sampled_from(["", "C", "CC", "OCC", "NC(=O)", "FC(F)(F)"]),
            st.randoms(use_true_random=False) | st.none(),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_feature_table_scaffold_key_equals_chem_scaffold_key(spellings):
    from txf.chem import SmilesParseError, parse_smiles, scaffold_key

    table = FeatureTable()  # one table across the list, as one task shares it
    for smiles, head, rng in spellings:
        try:
            mol = parse_smiles(head + smiles)
        except SmilesParseError:
            continue
        text = head + smiles if rng is None else _respell(permute_molecule(mol, rng))
        assert table.scaffold_key(text) == scaffold_key(parse_smiles(text))


def test_cold_start_split_keys_disjoint():
    manifest = _binary_manifest(
        roles=(
            RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),
            RoleSpec("target", "amino_acid", "Target", "Target amino acid sequence"),
        ),
        split_method="cold_start",
        cold_start_role="target",
    )
    records = [
        DataRecord(str(i), {"drug": "CCO", "target": f"SEQ{i % 7}"}, True)
        for i in range(40)
    ]
    out = assign_splits(records, manifest, seed=1, table=FeatureTable())
    seen = {}
    for r in out:
        seen.setdefault(r.features["target"], set()).add(r.split)
    for splits in seen.values():
        assert len(splits) == 1


_COLD_START = _binary_manifest(
    roles=(
        RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),
        RoleSpec("target", "amino_acid", "Target", "Target amino acid sequence"),
    ),
    split_method="cold_start",
    cold_start_role="target",
)
_COMBINATION = _binary_manifest(
    roles=(
        RoleSpec("a", "smiles", "A", "Drug A SMILES"),
        RoleSpec("b", "smiles", "B", "Drug B SMILES"),
    ),
    split_method="combination",
    combination_roles=("a", "b"),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=60), st.integers(0, 10**6))
def test_cold_start_split_fills_each_split_by_its_cumulative_target(targets, seed):
    records = [DataRecord(str(i), {"drug": "CCO", "target": f"SEQ{t}"}, True) for i, t in enumerate(targets)]
    out = assign_splits(records, _COLD_START, seed=seed, table=FeatureTable())
    assert [r.split for r in out] == grouped_splits([r.features["target"] for r in records], seed)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=60), st.integers(0, 10**6))
def test_combination_split_fills_each_split_by_its_cumulative_target(pairs, seed):
    records = [DataRecord(str(i), {"a": "C" * (a + 1), "b": "C" * (b + 1)}, True) for i, (a, b) in enumerate(pairs)]
    out = assign_splits(records, _COMBINATION, seed=seed, table=FeatureTable())
    keys = [tuple(sorted((r.features["a"], r.features["b"]))) for r in records]
    assert [r.split for r in out] == grouped_splits(keys, seed)


def test_a_train_group_that_overshoots_takes_from_valid_not_test():
    # Ten records: train's target is 8, valid's cumulative target 9. The
    # seed puts SEQA (5) and SEQB (4) first, so train ends at 9 and SEQC
    # goes to test, leaving valid empty.
    targets = ["SEQA"] * 5 + ["SEQB"] * 4 + ["SEQC"]
    records = [DataRecord(str(i), {"drug": "CCO", "target": t}, True) for i, t in enumerate(targets)]
    out = assign_splits(records, _COLD_START, seed=5, table=FeatureTable())
    assert [r.split for r in out] == ["train"] * 9 + ["test"]


def test_combination_split_unordered_pairs():
    manifest = _binary_manifest(
        roles=(
            RoleSpec("a", "smiles", "A", "Drug A SMILES"),
            RoleSpec("b", "smiles", "B", "Drug B SMILES"),
        ),
        split_method="combination",
        combination_roles=("a", "b"),
    )
    records = []
    for i in range(30):
        x, y = f"C{'C' * (i % 4)}", f"N{'C' * (i % 3)}"
        records.append(DataRecord(f"f{i}", {"a": x, "b": y}, True))
        records.append(DataRecord(f"r{i}", {"a": y, "b": x}, True))
    out = assign_splits(records, manifest, seed=1, table=FeatureTable())
    by_pair = {}
    for r in out:
        key = tuple(sorted((r.features["a"], r.features["b"])))
        by_pair.setdefault(key, set()).add(r.split)
    for splits in by_pair.values():
        assert len(splits) == 1


def test_temporal_split_ordering():
    manifest = _binary_manifest(split_method="temporal", timestamp_column="Year")
    records = [
        DataRecord(str(i), {"drug": "CCO"}, True, timestamp=str(2000 + (i * 7) % 20))
        for i in range(20)
    ]
    out = assign_splits(records, manifest, seed=1, table=FeatureTable())
    max_train = max(int(r.timestamp) for r in out if r.split == "train")
    min_test = min(int(r.timestamp) for r in out if r.split == "test")
    assert max_train <= min_test


def test_temporal_split_sorts_nan_after_every_number():
    # NaN compares false both ways, so read as a number it left the sort
    # order, and the split, to depend on the row it sat in.
    manifest = _binary_manifest(split_method="temporal", timestamp_column="Year")
    splits = []
    for nan_row in (0, 10):
        stamps = [str(t) for t in range(20, 0, -1)]
        stamps.insert(nan_row, "nan")
        records = [DataRecord(stamp, {"drug": "CCO"}, True, timestamp=stamp) for stamp in stamps]
        splits.append({r.timestamp: r.split for r in assign_splits(records, manifest, seed=1, table=FeatureTable())})
    assert splits[0] == splits[1]
    assert {stamp for stamp, split in splits[0].items() if split == "test"} == {"20", "nan"}


def test_temporal_split_sorts_text_timestamps_after_numbers_by_their_text():
    manifest = _binary_manifest(split_method="temporal", timestamp_column="Date")
    stamps = ["2021-03", "7", "2020-11", "2020-02", "3", "late"] + [str(t) for t in range(10, 24)]
    records = [DataRecord(stamp, {"drug": "CCO"}, True, timestamp=stamp) for stamp in stamps]
    out = assign_splits(records, manifest, seed=1, table=FeatureTable())
    # Of 20 records, the 16 numbers fill train; the text follows in its order.
    assert {r.timestamp for r in out if r.split == "train"} == {"3", "7", *stamps[6:]}
    assert {r.timestamp for r in out if r.split == "valid"} == {"2020-02", "2020-11"}
    assert {r.timestamp for r in out if r.split == "test"} == {"2021-03", "late"}


def test_a_valid_manifest_builds():
    assert _binary_manifest().task_id == "toy"


def test_a_regression_manifest_builds_without_a_label_range():
    # The one invariant left open: fit_label_range fills the range in after
    # the split, and binning refuses until then.
    manifest = _binary_manifest(task_kind="regression", metric="mae")
    assert manifest.label_range is None
    with pytest.raises(ValueError, match="toy: no label range to bin with"):
        render_target(DataRecord("r0", {"drug": "CCO"}, 0.5), manifest)


@pytest.mark.parametrize("label_range", [(float("-inf"), 1.0), (0.0, float("inf")), (float("nan"), 1.0)])
def test_manifest_rejects_a_non_finite_label_range(label_range):
    with pytest.raises(CorpusError) as caught:
        _binary_manifest(task_kind="regression", metric="mae", label_range=label_range)
    assert str(caught.value) == "toy: label range must be finite"


def test_manifest_rejects_an_undeclared_placeholder():
    with pytest.raises(CorpusError) as caught:
        _binary_manifest(question="How about {nosuch}?")
    assert str(caught.value) == "toy: question references undeclared role 'nosuch'"


def test_manifest_lists_every_problem_in_one_error():
    with pytest.raises(CorpusError) as caught:
        _binary_manifest(task_kind="ternary", split_method="temporal", context="{a} and {b}")
    assert str(caught.value).splitlines() == [
        "toy: unknown task_kind 'ternary'",
        "toy: temporal split needs timestamp_column",
        "toy: context references undeclared role 'a'",
        "toy: context references undeclared role 'b'",
    ]


def _edited_manifest_file(tmp_path, edits, **overrides):
    """A manifest file of ``_binary_manifest(**overrides)`` with each
    ``key: value`` of ``edits`` set, added or, for a None value, removed."""
    path = tmp_path / "toy.manifest"
    write_manifest(_binary_manifest(**overrides), path)
    values = dict(line.split(": ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    values.update(edits)
    path.write_text("".join(f"{k}: {v}\n" for k, v in values.items() if v is not None), encoding="utf-8")
    return path


_REGRESSION = dict(task_kind="regression", metric="mae", label_range=(0.0, 1.0))
_TWO_ROLES = dict(roles=(RoleSpec("a", "smiles", "A", "Drug A"), RoleSpec("b", "smiles", "B", "Drug B")))


@pytest.mark.parametrize(
    "edits, overrides, problem",
    [
        ({"task_kind": "ternary"}, {}, "unknown task_kind 'ternary'"),
        ({"metric": "f1"}, {}, "unknown metric 'f1'"),
        ({"split_method": "sideways"}, {}, "unknown split_method 'sideways'"),
        ({"roles": ""}, {}, "no roles declared"),
        ({"roles": "drug drug"}, {}, "duplicate role names"),
        ({"role.drug.kind": "peptide"}, {}, "role 'drug' has unknown kind 'peptide'"),
        ({"role.drug.label": ""}, {}, "role 'drug' has an empty label"),
        ({"label_max": "0.0"}, _REGRESSION, "label range must satisfy min < max"),
        ({"label_min": "2.5"}, _REGRESSION, "label range must satisfy min < max"),
        ({"split_method": "scaffold", "role.drug.kind": "text"}, {}, "scaffold split needs a smiles role"),
        ({"split_method": "cold_start"}, {}, "cold_start split needs cold_start_role"),
        ({"split_method": "cold_start", "cold_start_role": "target"}, {}, "cold_start_role 'target' is not a role"),
        ({"split_method": "combination"}, {}, "combination split needs two declared roles"),
        ({"split_method": "combination", "combination_roles": "a c"}, _TWO_ROLES,
         "combination split needs two declared roles"),
        ({"split_method": "temporal"}, {}, "temporal split needs timestamp_column"),
        ({"instruction": "Compare {drug} with {target}."}, {}, "instruction references undeclared role 'target'"),
        ({"metric": "spearman"}, {}, "metric 'spearman' cannot score a binary task"),
        ({"metric": "set_accuracy"}, {}, "metric 'set_accuracy' cannot score a binary task"),
        ({"metric": "accuracy", "lower_is_better": None}, _REGRESSION,
         "metric 'accuracy' cannot score a regression task"),
    ],
    ids=[
        "task_kind", "metric", "split_method", "no-roles", "duplicate-roles", "role-kind", "empty-label",
        "min-equals-max", "min-above-max", "scaffold-without-smiles", "cold-start-without-role",
        "cold-start-undeclared-role", "combination-one-role", "combination-undeclared-role",
        "temporal-without-timestamp", "undeclared-placeholder", "binary-spearman", "binary-set-accuracy",
        "regression-accuracy",
    ],
)
def test_read_manifest_rejects_a_broken_invariant(tmp_path, edits, overrides, problem):
    path = _edited_manifest_file(tmp_path, edits, **overrides)
    with pytest.raises(CorpusError) as caught:
        read_manifest(path)
    assert str(caught.value) == f"toy: {problem}"


def _manifest_file(tmp_path, metric, direction):
    """A manifest file for ``metric``, of a task kind it scores, whose
    lower_is_better line reads ``direction``, or has no such line when it is
    None."""
    path = tmp_path / "toy.manifest"
    kind = next(kind for kind, metrics in KIND_METRICS.items() if metric in metrics)
    write_manifest(_binary_manifest(task_kind=kind, metric=metric), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    [n] = [i for i, line in enumerate(lines) if line.startswith("lower_is_better:")]
    lines[n : n + 1] = [] if direction is None else [f"lower_is_better: {direction}\n"]
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "metric, direction, lower",
    [("mae", "true", True), ("mse", " TRUE", True), ("auroc", "False", False), ("spearman", "fAlSe", False),
     ("mae", None, True), ("auroc", None, False)],
)
def test_manifest_direction_is_the_metrics(tmp_path, metric, direction, lower):
    assert read_manifest(_manifest_file(tmp_path, metric, direction)).lower_is_better is lower


@pytest.mark.parametrize(
    "metric, direction, message",
    [
        ("mae", "false", "lower_is_better is false, but lower is better for metric 'mae'"),
        ("auroc", "True", "lower_is_better is true, but higher is better for metric 'auroc'"),
        ("auroc", "yes", "lower_is_better is not true or false: 'yes'"),
        ("mae", "1", "lower_is_better is not true or false: '1'"),
    ],
    ids=["mae-false", "auroc-True", "auroc-yes", "mae-1"],
)
def test_read_manifest_rejects_a_direction_the_metric_does_not_have(tmp_path, metric, direction, message):
    with pytest.raises(CorpusError, match=f"toy.manifest: {message}"):
        read_manifest(_manifest_file(tmp_path, metric, direction))


def test_manifest_file_round_trip(tmp_path):
    manifest = _binary_manifest(
        task_kind="regression",
        metric="mae",
        label_range=(-3.5, 12.25),
        question="Predict the value from 000 to 1000.\n\nSecond line.",
    )
    path = tmp_path / "toy.manifest"
    write_manifest(manifest, path)
    back = read_manifest(path)
    assert back == manifest


# Manifest values: backslashes, "n", newlines, ": " and other whitespace in
# any mix, with no surrounding whitespace and no "\r", since the reader strips
# the one and reads the other as a line end. Kinds and the split method come
# from their valid sets, the metric from those of the task kind, and the fields
# a split method needs agree with the roles, since no other manifest can be
# built.
_values = st.text("\\n\n: #x\té\x85\u2028", max_size=12).map(str.strip)
_optional = st.none() | _values.filter(bool)
_names = st.sampled_from(["drug", "target", "x", "_a1", "Protein2"])
_roles = st.lists(
    st.builds(RoleSpec, _names, st.sampled_from(ROLE_KINDS), _values, _values.filter(bool)),
    unique_by=lambda r: r.name,
    min_size=1,
    max_size=3,
).map(tuple)
_numbers = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _manifests(draw):
    roles = draw(_roles)
    names = st.sampled_from([r.name for r in roles])
    split_method = draw(st.sampled_from(SPLIT_METHODS))
    if split_method == "scaffold" and not any(r.kind == "smiles" for r in roles):
        roles = (RoleSpec("smiles_role", "smiles", draw(_values), draw(_values.filter(bool))), *roles)
    task_kind = draw(st.sampled_from(TASK_KINDS))
    combination = st.none() | st.tuples(_names, _names)
    if split_method == "combination":
        combination = st.tuples(names, names) | (st.none() if len(roles) > 1 else st.nothing())
    return TaskManifest(
        task_id=draw(_values),
        task_kind=task_kind,
        roles=roles,
        instruction=draw(_values),
        context=draw(_values),
        question=draw(_values),
        label_column=draw(_values),
        metric=draw(st.sampled_from(KIND_METRICS[task_kind])),
        split_method=split_method,
        label_range=draw(st.none() | st.tuples(_numbers, _numbers).filter(lambda r: r[0] < r[1])),
        cold_start_role=draw(names if split_method == "cold_start" else _optional),
        combination_roles=draw(combination),
        timestamp_column=draw(_values.filter(bool) if split_method == "temporal" else _optional),
        subtask_column=draw(_optional),
    )


@settings(deadline=None)
@given(manifest=_manifests())
def test_every_manifest_value_reads_back_equal(tmp_path_factory, manifest):
    path = tmp_path_factory.mktemp("manifest") / "m.manifest"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


def test_read_manifest_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "toy.manifest"
    write_manifest(_binary_manifest(), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("# a comment\nsplit_method: scaffold\n")
    lines = path.read_text(encoding="utf-8").count("\n")
    with pytest.raises(CorpusError, match=f"toy.manifest:{lines}: repeated key 'split_method'"):
        read_manifest(path)


@pytest.mark.parametrize("key", ["subtask_colum", "Task_id", "label_range", "role.target.kind", "role.drug.name"])
def test_read_manifest_rejects_an_unknown_key(tmp_path, key):
    # A role key counts as known only for a declared role and a RoleSpec field.
    path = tmp_path / "toy.manifest"
    write_manifest(_binary_manifest(), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"# a comment\n{key}: Assay\n\n")
    lineno = path.read_text(encoding="utf-8").count("\n") - 1
    with pytest.raises(CorpusError) as caught:
        read_manifest(path)
    assert str(caught.value) == f"{path}:{lineno}: unknown key {key!r}"


def test_read_manifest_reports_a_broken_invariant_before_an_unknown_key(tmp_path):
    path = _edited_manifest_file(tmp_path, {"task_kind": "ternary", "subtask_colum": "Assay"})
    with pytest.raises(CorpusError, match="^toy: unknown task_kind 'ternary'$"):
        read_manifest(path)


def _doc_table_keys(doc: str, heading: str) -> set[str]:
    """The backquoted keys in the first column of the table under ``heading``."""
    section = doc.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    return {key for cell in rows for key in re.findall(r"`([^`]+)`", cell)}


def test_the_format_doc_lists_exactly_the_manifest_keys():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "manifest_format.md").read_text(encoding="utf-8")
    keys = list(corpus._keys(["<name>"]))
    assert _doc_table_keys(doc, "Required keys") == {key for key, optional, _ in keys if not optional}
    assert _doc_table_keys(doc, "Optional keys") == {key for key, optional, _ in keys if optional}


def test_fit_label_range_train_only():
    manifest = _binary_manifest(task_kind="regression", metric="mae")
    records = [
        DataRecord("0", {"drug": "C"}, 5.0, split="train"),
        DataRecord("1", {"drug": "CC"}, 1.0, split="train"),
        DataRecord("2", {"drug": "CCC"}, 99.0, split="test"),
    ]
    fitted = fit_label_range(records, manifest)
    assert fitted.label_range == (1.0, 5.0)


def test_split_audit_file(tmp_path):
    records = [
        DataRecord("a", {"drug": "C"}, True, split="train"),
        DataRecord("b", {"drug": "CC"}, False, split="test"),
    ]
    path = tmp_path / "audit.tsv"
    write_split_audit(records, path)
    assert path.read_text() == "a\ttrain\nb\ttest\n"
