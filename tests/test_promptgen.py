import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Sequence
from rebuild import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_tasks
import render_reference
import sampling_reference
import txf
from knn_reference import naive_nearest
from txf.corpus import CorpusError, DataRecord, RoleSpec, TaskManifest, assign_splits
from txf.promptgen import (
    BIN_LEVELS,
    _jsonl_line,
    NeighborIndex,
    PromptRecord,
    bin_label,
    build_mixture,
    render_prompt,
    select_shots_random,
    shot_source_splits,
    unbin_label,
    write_prompt_jsonl,
)


# --- binning -----------------------------------------------------------


def test_bin_label_examples():
    assert bin_label(7.88, (0.0, 10.0)) == (788, "788")
    assert bin_label(0.0, (0.0, 10.0)) == (0, "000")
    assert bin_label(15.0, (0.0, 10.0)) == (1000, "1000")


def test_bin_label_rejects_nan():
    with pytest.raises(ValueError):
        bin_label(float("nan"), (0.0, 1.0))


def test_bin_label_monotone():
    values = [-6.0, -4.0, -1.3, 0.0, 2.7, 8.999, 9.0, 12.0]
    bins = [bin_label(v, (-4.0, 9.0))[0] for v in values]
    assert bins == sorted(bins)


def test_unbin_examples():
    assert unbin_label(788, (0.0, 10.0)) == pytest.approx(7.88)
    assert unbin_label(0, (0.0, 10.0)) == 0.0
    assert unbin_label(1000, (0.0, 10.0)) == 10.0
    with pytest.raises(ValueError):
        unbin_label(1001, (0.0, 10.0))


def test_bin_round_trip_error_bound():
    rng = random.Random(97)
    lo, hi = -3.0, 17.0
    half_step = (hi - lo) / (2 * BIN_LEVELS)
    for _ in range(10_000):
        y = rng.uniform(lo, hi)
        b, _ = bin_label(y, (lo, hi))
        assert abs(unbin_label(b, (lo, hi)) - y) <= half_step + 1e-12


# --- rendering ---------------------------------------------------------


@pytest.mark.parametrize("name, manifest, query, shots", golden_tasks.GOLDEN_CASES)
def test_golden_prompts(fixtures_dir, name, manifest, query, shots):
    golden = (fixtures_dir / "golden_prompts" / name).read_text(encoding="utf-8").rstrip("\n")
    rendered = render_prompt(query, manifest, shots)
    assert rendered.prompt + " " + rendered.target == golden


def test_zero_shot_prompt_single_answer_line():
    rendered = render_prompt(golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST)
    assert rendered.prompt.endswith("Answer:")
    assert rendered.prompt.count("Answer:") == 1
    assert len(rendered.shot_ids) == 0


def test_fewshot_prompt_counts():
    rendered = render_prompt(
        golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST, golden_tasks.BBB_SHOTS
    )
    assert len(rendered.shot_ids) == 10
    assert rendered.prompt.count("Answer:") == 11
    assert rendered.shot_ids == tuple(s.record_id for s in golden_tasks.BBB_SHOTS)


def test_distinct_labels_distinct_targets():
    rec_pos = DataRecord("a", {"drug": "CCO"}, True, split="train")
    rec_neg = DataRecord("b", {"drug": "CCO"}, False, split="train")
    manifest = golden_tasks.BBB_MANIFEST
    assert render_prompt(rec_pos, manifest).target == "(B)"
    assert render_prompt(rec_neg, manifest).target == "(A)"


def test_subtask_placeholder():
    manifest = TaskManifest(
        task_id="toxcast",
        task_kind="binary",
        roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
        instruction="Answer the question.",
        context="Assay {subtask} measures toxicity.",
        question="Active?\n\n(A) no (B) yes",
        label_column="Y",
        metric="auroc",
        split_method="scaffold",
        subtask_column="Assay",
    )
    record = DataRecord("r0", {"drug": "CCO"}, True, subtask="A-123", split="test")
    rendered = render_prompt(record, manifest)
    assert "Assay A-123 measures toxicity." in rendered.prompt
    assert rendered.subtask == "A-123"


def test_undeclared_placeholder_is_rejected_when_the_manifest_is_built():
    # So render_prompt only ever fills declared roles.
    with pytest.raises(CorpusError, match="^broken: question references undeclared role 'mystery'$"):
        TaskManifest(
            task_id="broken",
            task_kind="binary",
            roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
            instruction="Answer.",
            context="None.",
            question="What about {mystery}?\n\n(A) no (B) yes",
            label_column="Y",
            metric="auroc",
            split_method="random",
        )


def test_inline_role_placeholder_consumes_role_line():
    manifest = TaskManifest(
        task_id="inline",
        task_kind="binary",
        roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
        instruction="Answer.",
        context="None.",
        question="Does {drug} bind?\n\n(A) no (B) yes",
        label_column="Y",
        metric="auroc",
        split_method="random",
    )
    record = DataRecord("r0", {"drug": "CCO"}, True, split="test")
    rendered = render_prompt(record, manifest)
    assert "Does CCO bind?" in rendered.prompt
    assert "Drug SMILES:" not in rendered.prompt


# --- shot selection ----------------------------------------------------


def _pool(n):
    return [DataRecord(f"p{i}", {"drug": "C" * (i + 1)}, bool(i % 2), split="train") for i in range(n)]


def test_random_shots_clamp_and_exclude():
    pool = _pool(3)
    shots = select_shots_random(pool, 10, seed=1, exclude=0)
    assert len(shots) == 2
    assert all(s.record_id != "p0" for s in shots)


def test_random_shots_deterministic():
    pool = _pool(30)
    a = select_shots_random(pool, 5, seed=42)
    b = select_shots_random(pool, 5, seed=42)
    assert [s.record_id for s in a] == [s.record_id for s in b]


def test_random_shots_uniform_frequency():
    # Chi-square style harness: single draws from a 10-element pool.
    pool = _pool(10)
    counts = Counter()
    draws = 10_000
    for i in range(draws):
        shot = select_shots_random(pool, 1, seed=i)[0]
        counts[shot.record_id] += 1
    expected = draws / 10
    sigma = math.sqrt(draws * 0.1 * 0.9)
    for record_id in (f"p{i}" for i in range(10)):
        assert abs(counts[record_id] - expected) <= 3 * sigma


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 300),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from(["first", "middle", "last", "absent", "none"]),
)
# random.sample's list branch, its set branch, and the shuffle branch.
@example(size=20, n=5, seed=7, where="middle")
@example(size=300, n=12, seed=7, where="middle")
@example(size=6, n=12, seed=7, where="last")
def test_random_shots_equal_the_copying_draws(size, n, seed, where):
    pool = _pool(size)
    position = {"first": 0, "middle": size // 2, "last": size - 1}.get(where)
    exclude_id = pool[position].record_id if position is not None else {"absent": "q"}.get(where)
    try:
        expected = sampling_reference.select_shots_random(pool, n, seed, exclude_id=exclude_id)
    except ValueError:
        with pytest.raises(ValueError, match="empty shot pool"):
            select_shots_random(pool, n, seed, exclude=position)
        return
    assert select_shots_random(pool, n, seed, exclude=position) == expected


class _IndexOnlyPool(Sequence):
    """A pool of generated records that counts item reads and refuses
    iteration, so a draw that walks the pool fails."""

    def __init__(self, size):
        self.size = size
        self.reads = 0

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        self.reads += 1
        return DataRecord(f"p{i}", {"drug": "C"}, bool(i % 2), split="train")

    def __iter__(self):
        raise AssertionError("the shot pool was iterated")


def test_random_shots_read_only_the_picked_records():
    pool = _IndexOnlyPool(50_000)
    for n, exclude in ((1, None), (5, 0), (12, 25_000), (10, 49_999)):
        pool.reads = 0
        shots = select_shots_random(pool, n, seed=n, exclude=exclude)
        assert len(shots) == n
        assert pool.reads <= n


def test_random_shots_reject_an_exclude_outside_the_pool():
    for exclude in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            select_shots_random(_pool(3), 1, seed=1, exclude=exclude)


def test_knn_duplicate_is_first_shot():
    pool = _pool(8)
    pool.append(DataRecord("dup", {"drug": golden_tasks.BBB_QUERY.features["drug"]}, True, split="train"))
    ranked = NeighborIndex(golden_tasks.BBB_MANIFEST, pool).nearest(golden_tasks.BBB_QUERY.features, 3)
    assert pool[ranked[0][0]].record_id == "dup"


def test_knn_matches_naive_scan():
    from txf.chem import morgan_fingerprint, parse_smiles, tanimoto

    rng = random.Random(51)
    smiles = ["C" * rng.randint(1, 6) + "O" * rng.randint(0, 2) for _ in range(40)]
    pool = [DataRecord(f"p{i}", {"drug": s}, True, split="train") for i, s in enumerate(smiles)]
    query = DataRecord("q", {"drug": "CCCO"}, True, split="test")
    got = [pool[i] for i, _ in NeighborIndex(golden_tasks.BBB_MANIFEST, pool).nearest(query.features, 5)]
    qfp = morgan_fingerprint(parse_smiles("CCCO"))
    naive = sorted(
        ((i, tanimoto(qfp, morgan_fingerprint(parse_smiles(s)))) for i, s in enumerate(smiles)),
        key=lambda item: (-item[1], item[0]),
    )[:5]
    assert [s.record_id for s in got] == [f"p{i}" for i, _ in naive]


def test_knn_sequence_averaging():
    manifest = golden_tasks.MHC1_MANIFEST
    pool = [
        DataRecord("near", {"peptide": "QLADETLLKV", "mhc": "YFAMYGEKVAHTHVDTLYVRYHYYTWAEWAYTWY"}, True, split="train"),
        DataRecord("far", {"peptide": "GGGGGGGGGG", "mhc": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}, True, split="train"),
    ]
    [(best, _)] = NeighborIndex(manifest, pool).nearest(golden_tasks.MHC1_QUERY.features, 1)
    assert pool[best].record_id == "near"


def _records(manifest, rows):
    names = [role.name for role in manifest.roles]
    return [
        DataRecord(f"p{i}", dict(zip(names, row)), True, split="train")
        for i, row in enumerate(rows)
    ]


_SMILES_POOL = [
    "CCO", "CCO", "C1CC(", "c1ccccc1O", "CCCO",
    "c1ccccc1O", "OCCO", "not a molecule", "CCN", "CCO",
]


@pytest.mark.parametrize(
    "manifest, rows, queries",
    [
        # Duplicate and unparseable SMILES, queries in and out of the pool.
        (
            golden_tasks.BBB_MANIFEST,
            [(s,) for s in _SMILES_POOL],
            [("CCO",), ("CCCCO",), ("C1CC(",), ("c1ccccc1N",)],
        ),
        # Two amino-acid roles averaged; "B" is outside the alphabet.
        (
            golden_tasks.MHC1_MANIFEST,
            [
                ("QLADETLLKV", "YFAMYGEKVAHTHVDTLYVRYHYYTWAEWAYTWY"),
                ("QLADETLLKV", "YFAMYGEKVAHTHVDTLYVRYHYYTWAEWAYTWY"),
                ("QLBDETLLKV", "YFAMYGEKVAHTHVDTLYVRYHYYTWAEWAYTWY"),
                ("BBBB", "BBBB"),
                ("GLADETLLKA", "YFAMYGEKVAHTHVDTLYVRYHYYTWAEWAYTWY"),
                ("qladetllkv", "YSAMYEEKVAHTDENIAYLMFHYYTWAVLAYTWY"),
                ("GGGGGGGGGG", "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
            ],
            [
                ("QLADETLLKV", "YFAMYGEKVAHTHVDTLYVRYHYYTWAEWAYTWY"),
                ("QLADETLLKB", "YSAMYEEKVAHTDENIAYLMFHYYTWAVLAYTWY"),
                ("BB", "BB"),
            ],
        ),
        # A nucleotide role first: only nucleotide roles are compared.
        (
            golden_tasks.MIRTARBASE_MANIFEST,
            [
                ("UUCCUGUCAGCCGUGGGUGCC", "MSVNMDELRH"),
                ("UUCCUGUCAGCC", "MKTAYIAKQR"),
                ("UUCCUGUCAGCCGUGGGUGCC", "MKTAYIAKQR"),
                ("XXXX", "MSVNMDELRH"),
                ("ACGUACGUACGU", "MSVNMDELRH"),
            ],
            [("UUCCUGUCAGCCGUGG", "MSVNMDELRH"), ("XX", "MSVNMDELRH")],
        ),
    ],
)
def test_neighbor_index_matches_naive_scan(manifest, rows, queries):
    pool = _records(manifest, rows)
    index = NeighborIndex(manifest, pool)
    positions = {r.record_id: i for i, r in enumerate(pool)}
    candidates = _records(manifest, queries) + pool[:3]
    for query in candidates:
        for k in (1, 3, len(pool) + 2):
            for exclude_id in (None, query.record_id):
                expected = naive_nearest(manifest, query, pool, k, exclude_id)
                exclude = positions.get(exclude_id)
                assert index.nearest(query.features, k, exclude=exclude) == expected


_SMILES_TOKENS = ["C", "O", "N", "c1ccccc1", "(", ")", "=", "1", "Cl"]


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(
        st.lists(st.sampled_from(_SMILES_TOKENS), min_size=1, max_size=5).map("".join),
        min_size=1,
        max_size=12,
    ),
    query=st.lists(st.sampled_from(_SMILES_TOKENS), min_size=1, max_size=5).map("".join),
    k=st.integers(min_value=1, max_value=14),
)
def test_neighbor_index_matches_naive_scan_on_random_smiles(pool, query, k):
    manifest = golden_tasks.BBB_MANIFEST
    records = _records(manifest, [(s,) for s in pool])
    probe = DataRecord("q", {"drug": query}, True)
    got = NeighborIndex(manifest, records).nearest(probe.features, k)
    assert got == naive_nearest(manifest, probe, records, k)


_RESIDUES = st.text(alphabet="ACDEaB", min_size=1, max_size=5)  # "B" is no amino acid
_SMILES = st.lists(st.sampled_from(_SMILES_TOKENS), min_size=1, max_size=4).map("".join)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), smiles=st.booleans())
def test_nearest_equals_a_full_scan(data, smiles):
    # Short strings over few letters give duplicate features, features that
    # do not parse, equal popcounts and equal identities; MHC1 averages two
    # sequence roles. Every exclude and k up to beyond the pool are checked.
    if smiles:
        manifest, row = golden_tasks.BBB_MANIFEST, st.tuples(_SMILES)
    else:
        manifest, row = golden_tasks.MHC1_MANIFEST, st.tuples(_RESIDUES, _RESIDUES)
    pool = _records(manifest, data.draw(st.lists(row, min_size=1, max_size=8)))
    query = data.draw(st.sampled_from(pool) | row.map(lambda r: _records(manifest, [r])[0]))
    index = NeighborIndex(manifest, pool)
    for exclude in [None, *range(len(pool))]:
        exclude_id = None if exclude is None else pool[exclude].record_id
        expected = naive_nearest(manifest, query, pool, len(pool) + 2, exclude_id)
        for k in range(1, len(pool) + 3):
            assert index.nearest(query.features, k, exclude=exclude) == expected[:k]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), smiles=st.booleans())
def test_indexes_sharing_one_feature_table_equal_a_full_scan(data, smiles):
    # As one command does per task: the split fills the feature memos first
    # (BBB is scaffold-split), then a train pool and a train + valid pool each
    # get an index over the same memos. Queries come from the task and from
    # outside it, and each index is asked in turn, so either may convert a
    # query first.
    if smiles:
        manifest, row = golden_tasks.BBB_MANIFEST, st.tuples(_SMILES)
    else:
        manifest, row = golden_tasks.MHC1_MANIFEST, st.tuples(_RESIDUES, _RESIDUES)
    rows = data.draw(st.lists(row, min_size=1, max_size=10))
    records = assign_splits(_records(manifest, rows), manifest, seed=1)
    names = [role.name for role in manifest.roles]
    outside = [
        DataRecord(f"q{i}", dict(zip(names, r)), True)
        for i, r in enumerate(data.draw(st.lists(row, max_size=3)))
    ]
    indexes = []
    for sources in (("train",), ("train", "valid")):
        pool = [r for r in records if r.split in sources]
        if pool:
            indexes.append((pool, NeighborIndex(manifest, pool)))
    for query in records + outside:
        for pool, index in indexes:
            positions = {r.record_id: i for i, r in enumerate(pool)}
            exclude = positions.get(query.record_id)
            exclude_id = None if exclude is None else query.record_id
            for k in (1, 3, len(pool) + 1):
                expected = naive_nearest(manifest, query, pool, k, exclude_id)
                assert index.nearest(query.features, k, exclude=exclude) == expected


def test_nearest_scores_a_group_whose_bound_ties_the_kth_best():
    # The query aligns to "GAC" at 20 % under a 40 % bound (LCS "AC" over 5
    # residues), so "GAC" is visited first and holds the one slot. "CC" comes
    # next with bound and identity both 20 %: it ties and wins on its lower
    # position, so the search may stop only on a bound strictly below the
    # k-th best similarity.
    manifest = golden_tasks.MIRTARBASE_MANIFEST
    pool = _records(manifest, [("CC", "MSVNMDELRH"), ("GAC", "MSVNMDELRH")])
    query = _records(manifest, [("ACGUA", "MSVNMDELRH")])[0]
    assert NeighborIndex(manifest, pool).nearest(query.features, 1) == [(0, 20.0)]
    assert naive_nearest(manifest, query, pool, 1) == [(0, 20.0)]


def test_neighbor_index_fingerprints_each_distinct_smiles_once(monkeypatch):
    import txf.chem as chem

    calls = Counter()
    original = chem.morgan_fingerprint

    def counting(mol, *args, **kwargs):
        calls["fp"] += 1
        return original(mol, *args, **kwargs)

    monkeypatch.setattr(chem, "morgan_fingerprint", counting)
    distinct = ["CCO", "CCCO", "c1ccccc1O", "OCCO", "CCN", "CC(=O)O"]
    pool = _records(golden_tasks.BBB_MANIFEST, [(distinct[i % 6],) for i in range(60)])
    index = NeighborIndex(golden_tasks.BBB_MANIFEST, pool)
    queries = [DataRecord(f"q{i}", {"drug": s}, True) for i, s in enumerate(distinct + ["CCCCN"] * 4)]
    for query in queries:
        index.nearest(query.features, 10)
    # The pool's six strings, then one outside it: "CCCCN".
    assert calls["fp"] <= len(distinct) + 1


def _count_alignments(monkeypatch) -> Counter:
    import txf.bioseq as bioseq

    pairs = Counter()
    original = bioseq.percent_identity

    def counting(a, b):
        pairs[a.residues, b.residues] += 1
        return original(a, b)

    monkeypatch.setattr(bioseq, "percent_identity", counting)
    return pairs


def test_neighbor_index_aligns_each_distinct_pair_once(monkeypatch):
    pairs = _count_alignments(monkeypatch)
    manifest = golden_tasks.MHC1_MANIFEST
    peptides = ["QLADETLLKV", "GLADETLLKA", "QLADETLLKV", "GGGGGGGGGG"]
    pool = _records(manifest, [(peptides[i % 4], "YFAMYGEKVAHTHVDTLYVRYHYY") for i in range(40)])
    index = NeighborIndex(manifest, pool)
    # Query peptides differ from every pool peptide, and k covers the pool,
    # so no bound can prune: each query peptide meets the 3 distinct pool
    # peptides. The MHC roles are equal strings and need no alignment.
    queries = _records(manifest, [(("QLADETLLKW", "ALADETLLKV")[i % 2], "YFAMYGEKVAHTHVDTLYVRYHYY") for i in range(8)])
    for query in queries:
        index.nearest(query.features, len(pool))
    assert len(pairs) == 2 * 3 and max(pairs.values()) == 1


def test_indexes_sharing_one_feature_table_align_a_shared_pair_once(monkeypatch):
    # As one command does per task: a train pool and a train + valid pool
    # each get an index, and a query meets the same train record in both.
    pairs = _count_alignments(monkeypatch)
    manifest = golden_tasks.MHC1_MANIFEST
    mhc = "YFAMYGEKVAHTHVDTLYVRYHYY"
    train = _records(manifest, [("QLADETLLKV", mhc)])
    valid = _records(manifest, [("GGGGGGGGGG", mhc)])
    query = _records(manifest, [("QLADETLLKW", mhc)])[0]
    for pool in (train, train + valid):
        NeighborIndex(manifest, pool).nearest(query.features, 1)
    assert pairs == Counter({("QLADETLLKW", "QLADETLLKV"): 1})


def test_importing_promptgen_leaves_bioseq_unloaded():
    # A fresh interpreter, so modules the test session imported do not count.
    src = str(Path(txf.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, txf.promptgen; print('txf.bioseq' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_neighbor_index_requires_a_similarity_role():
    manifest = TaskManifest(
        task_id="textonly",
        task_kind="binary",
        roles=(RoleSpec("note", "text", "Note", "Note"),),
        instruction="Answer.",
        context="None.",
        question="Q?\n\n(A) no (B) yes",
        label_column="Y",
        metric="auroc",
        split_method="random",
    )
    pool = [DataRecord(f"p{i}", {"note": f"n{i}"}, True, split="train") for i in range(3)]
    index = NeighborIndex(manifest, pool)
    assert index.kind == ""
    with pytest.raises(ValueError):
        index.nearest(pool[0].features, 1)


def test_nearest_finds_nothing_in_a_pool_of_only_the_query():
    pool = _records(golden_tasks.BBB_MANIFEST, [("CCO",)])
    assert NeighborIndex(golden_tasks.BBB_MANIFEST, pool).nearest(pool[0].features, 2, exclude=0) == []


def test_shot_source_splits():
    assert shot_source_splits("train") == ("train",)
    assert shot_source_splits("valid") == ("train",)
    assert shot_source_splits("test") == ("train", "valid")


# --- length budget -----------------------------------------------------


def test_budget_large_keeps_all_shots():
    rendered = render_prompt(
        golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST, golden_tasks.BBB_SHOTS, budget=10_000
    )
    assert len(rendered.shot_ids) == 10
    assert not rendered.over_budget


def test_budget_drops_from_end_keeps_first():
    full = render_prompt(golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST, golden_tasks.BBB_SHOTS[:4])
    budget = full.estimated_length  # exactly fits 4 shots
    rendered = render_prompt(
        golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST, golden_tasks.BBB_SHOTS, budget=budget
    )
    assert rendered.shot_ids == tuple(s.record_id for s in golden_tasks.BBB_SHOTS[:4])
    assert rendered == full
    assert not rendered.over_budget


def test_budget_zero_shot_over_budget_flagged():
    rendered = render_prompt(
        golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST, golden_tasks.BBB_SHOTS, budget=10
    )
    assert len(rendered.shot_ids) == 0
    assert rendered.over_budget


def test_budget_fitting_renders_each_shot_once(monkeypatch):
    import txf.promptgen as promptgen

    query, manifest, shots = golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST, golden_tasks.BBB_SHOTS
    budget = render_prompt(query, manifest, shots[:4]).estimated_length
    targets = []
    original = promptgen.render_target

    def counting(record, manifest):
        targets.append(record.record_id)
        return original(record, manifest)

    monkeypatch.setattr(promptgen, "render_target", counting)
    rendered = render_prompt(query, manifest, shots, budget=budget)
    assert len(rendered.shot_ids) == 4
    # Ten shots and the query's own target, each rendered once.
    assert len(targets) == 11


def test_budget_fitting_equals_the_rerendering_loop_on_every_budget():
    query, manifest = golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST
    for n in range(11):
        shots = golden_tasks.BBB_SHOTS[:n]
        full = render_prompt(query, manifest, shots).estimated_length
        for budget in range(full + 6):
            expected = render_reference.fit_length_budget(query, manifest, shots, budget)
            assert render_prompt(query, manifest, shots, budget=budget) == expected


# Feature text of one to four UTF-8 bytes per character; no lone surrogates,
# which no table can hold.
_FEATURE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(golden_tasks.GOLDEN_CASES),
    shot_count=st.integers(0, 10),
    data=st.data(),
)
def test_budget_fitting_equals_the_rerendering_loop(case, shot_count, data):
    _, manifest, query, _ = case
    names = [role.name for role in manifest.roles]

    def features():
        return {name: data.draw(_FEATURE_TEXT) for name in names}

    if data.draw(st.booleans()):
        query = replace(query, features=features())
    shots = [replace(query, record_id=f"s{i}", features=features()) for i in range(shot_count)]
    full = render_reference.render_prompt(query, manifest, shots).estimated_length
    budget = data.draw(st.integers(0, full + 5))
    expected = render_reference.fit_length_budget(query, manifest, shots, budget)
    assert render_prompt(query, manifest, shots, budget=budget) == expected


# --- mixture -----------------------------------------------------------


def _mixture_tasks(sizes):
    tasks = {}
    for name, size in sizes.items():
        manifest = TaskManifest(
            task_id=name,
            task_kind="binary",
            roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
            instruction="Answer.",
            context="Ctx.",
            question="Active?\n\n(A) no (B) yes",
            label_column="Y",
            metric="auroc",
            split_method="random",
        )
        records = [
            DataRecord(f"{name}{i}", {"drug": "C" * (1 + i % 9)}, bool(i % 2), split="train")
            for i in range(size)
        ]
        tasks[name] = (manifest, records)
    return tasks


def test_mixture_task_weighting_and_shot_stats():
    tasks = _mixture_tasks({"big": 900, "small": 100})
    sample = list(build_mixture(tasks, 20_000, seed=1))
    n = len(sample)
    big = sum(1 for p in sample if p.task_id == "big")
    sigma_task = math.sqrt(n * 0.9 * 0.1)
    assert abs(big - 0.9 * n) <= 3 * sigma_task

    few = [p for p in sample if len(p.shot_ids) > 0]
    sigma_shot = math.sqrt(n * 0.7 * 0.3)
    assert abs((n - len(few)) - 0.7 * n) <= 3 * sigma_shot

    counts = Counter(len(p.shot_ids) for p in few)
    assert set(counts) <= set(range(1, 11))


def test_mixture_reproducible():
    tasks = _mixture_tasks({"a": 50, "b": 70})
    first = [ (p.task_id, p.record_id, p.shot_ids) for p in build_mixture(tasks, 200, seed=9)]
    second = [(p.task_id, p.record_id, p.shot_ids) for p in build_mixture(tasks, 200, seed=9)]
    assert first == second


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    count=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_equals_the_copying_mixture(sizes, count, seed):
    tasks = _mixture_tasks({f"t{i}": size for i, size in enumerate(sizes)})
    expected = list(sampling_reference.build_mixture(tasks, count, seed))
    assert list(build_mixture(tasks, count, seed)) == expected


def test_mixture_shots_come_from_same_task():
    tasks = _mixture_tasks({"a": 40, "b": 40})
    for prompt in build_mixture(tasks, 500, seed=13):
        for shot_id in prompt.shot_ids:
            assert shot_id.startswith(prompt.task_id)
            assert shot_id != prompt.record_id


# --- JSONL contract ----------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    rendered = [
        render_prompt(golden_tasks.BBB_QUERY, golden_tasks.BBB_MANIFEST, golden_tasks.BBB_SHOTS[:2]),
        render_prompt(golden_tasks.CACO2_QUERY, golden_tasks.CACO2_MANIFEST),
    ]
    path = tmp_path / "prompts.jsonl"
    write_prompt_jsonl(rendered, path)
    objs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    back = [
        PromptRecord(
            task_id=obj["task"],
            record_id=obj["record_id"],
            split=obj["split"],
            prompt=obj["prompt"],
            target=obj["target"],
            shot_ids=tuple(obj["shots"]),
            estimated_length=obj["estimated_length"],
            over_budget=obj["over_budget"],
            subtask=obj.get("subtask"),
        )
        for obj in objs
    ]
    assert back == rendered
    assert set(objs[0]) >= {"task", "split", "prompt", "target", "shots", "estimated_length", "over_budget"}


def test_jsonl_writes_a_subtask_key_only_for_a_record_with_a_subtask(tmp_path):
    manifest = replace(golden_tasks.BBB_MANIFEST, subtask_column="Assay")
    query = golden_tasks.BBB_QUERY
    rendered = [render_prompt(replace(query, subtask="A-1"), manifest), render_prompt(query, manifest)]
    path = tmp_path / "prompts.jsonl"
    write_prompt_jsonl(rendered, path)
    with_subtask, without = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert with_subtask["subtask"] == "A-1"
    assert "subtask" not in without


def _chars(lo, hi):
    return st.integers(lo, hi).map(chr)


# Text that JSON escapes ('"', backslash, C0 controls) or writes as it is
# though other encoders escape it (DEL, U+2028/U+2029, non-BMP, lone
# surrogates).
_JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x7f\u2028\u2029'),
        _chars(0, 0x1F),
        _chars(0x10000, 0x10FFFF),
        _chars(0xD800, 0xDFFF),
        st.characters(),
    ),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(
    fields=st.tuples(_JSON_TEXT, _JSON_TEXT, _JSON_TEXT, _JSON_TEXT, _JSON_TEXT),
    shot_ids=st.lists(_JSON_TEXT, max_size=10),
    estimated_length=st.integers(),
    over_budget=st.booleans(),
    subtask=st.one_of(st.none(), st.just(""), _JSON_TEXT),
)
def test_jsonl_line_equals_json_dumps(fields, shot_ids, estimated_length, over_budget, subtask):
    task_id, record_id, split, prompt, target = fields
    record = PromptRecord(
        task_id, record_id, split, prompt, target, tuple(shot_ids), estimated_length, over_budget, subtask
    )
    obj = {
        "task": task_id,
        "record_id": record_id,
        "split": split,
        "prompt": prompt,
        "target": target,
        "shots": list(shot_ids),
        "estimated_length": estimated_length,
        "over_budget": over_budget,
    }
    if subtask is not None:
        obj["subtask"] = subtask
    assert _jsonl_line(record) == json.dumps(obj, ensure_ascii=False) + "\n"
