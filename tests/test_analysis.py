import itertools
import random
import time
from rebuild import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from txf.analysis import (
    VERDICTS,
    ScoreRow,
    compare_pairs,
    contamination_scan,
    load_pair_rows,
    load_score_rows,
    median_relative_difference_by_feature_type,
    relative_difference,
    scoreboard,
    wilcoxon_signed_rank,
)


# --- relative difference -----------------------------------------------


def test_relative_difference_values():
    hia = ScoreRow("HIA Hou", "SMILES", "auroc", False, 0.988, 0.990)
    assert relative_difference(hia) == pytest.approx(0.0020, abs=5e-5)
    caco2 = ScoreRow("Caco2 Wang", "SMILES", "mae", True, 0.285, 0.432)
    assert relative_difference(caco2) == pytest.approx(-0.516, abs=5e-4)
    same = ScoreRow("x", "SMILES", "auroc", False, 0.5, 0.5)
    assert relative_difference(same) == 0.0


def test_relative_difference_requires_sota():
    with pytest.raises(ValueError):
        relative_difference(ScoreRow("x", "SMILES", "auroc", False, None, 0.5))
    with pytest.raises(ValueError):
        relative_difference(ScoreRow("x", "SMILES", "auroc", False, 0.0, 0.5))


def test_relative_difference_is_positive_for_the_better_model_below_zero():
    # The model above a negative higher-is-better reference is the better one.
    row = ScoreRow("t", "SMILES", "spearman", False, -0.2, 0.1)
    assert relative_difference(row) == pytest.approx(1.5)
    assert relative_difference(replace(row, model=-0.3)) == pytest.approx(-0.5)
    assert scoreboard([row]) == ["exceed"]


def test_relative_difference_scale_invariant():
    row = ScoreRow("x", "SMILES", "mae", True, 2.0, 3.0)
    scaled = ScoreRow("x", "SMILES", "mae", True, 20.0, 30.0)
    assert relative_difference(row) == pytest.approx(relative_difference(scaled))


# --- scoreboard ---------------------------------------------------------


def _fixture_rows():
    return load_score_rows(FIXTURES / "benchmark_results.csv")


def test_scoreboard_reproduces_published_counts():
    verdicts = scoreboard(_fixture_rows())
    assert verdicts.count("exceed") == 22
    assert verdicts.count("near") == 21
    assert verdicts.count("exceed") + verdicts.count("near") == 43
    assert verdicts.count("below") == 23
    assert len(verdicts) == 66


def test_scoreboard_partitions_rows():
    verdicts = scoreboard(_fixture_rows(), na_as_exceed=False)
    assert sum(verdicts.count(v) for v in VERDICTS) == 66
    assert verdicts.count("no_sota") == 3
    assert verdicts.count("exceed") == 19


def test_scoreboard_boundary_inclusive():
    row = ScoreRow("edge", "SMILES", "auroc", False, 1.0, 0.9)
    verdicts = scoreboard([row])
    assert verdicts == ["near"]


def test_scoreboard_empty():
    verdicts = scoreboard([])
    assert [verdicts.count(v) for v in VERDICTS] == [0, 0, 0, 0]


def test_feature_type_medians_match_published():
    medians = median_relative_difference_by_feature_type(_fixture_rows())
    published = {
        "SMILES + Text": 0.048,
        "Nucleotide + Amino acid": -0.007,
        "Amino acid": -0.080,
        "SMILES": -0.082,
        "Amino acid + SMILES": -0.482,
        "Nucleotide": -0.888,
    }
    assert set(medians) == set(published)
    for feature_type, expected in published.items():
        assert medians[feature_type] == pytest.approx(expected, abs=0.005), feature_type


def test_median_even_count():
    rows = [
        ScoreRow(f"t{i}", "SMILES", "auroc", False, 1.0, v)
        for i, v in enumerate((1.1, 1.2, 1.4, 1.8))
    ]
    medians = median_relative_difference_by_feature_type(rows)
    assert medians["SMILES"] == pytest.approx((0.2 + 0.4) / 2)


# --- Wilcoxon signed-rank -----------------------------------------------


def test_wilcoxon_identical_inputs():
    values = [0.5, 0.6, 0.7, 0.8, 0.9]
    result = wilcoxon_signed_rank(values, values)
    assert result.p_value == 1.0
    assert result.n_used == 0


def _wilcoxon_enumeration_p(diffs):
    """Exhaustive sign-flip null: P(min(W+,W-) <= observed)."""
    n = len(diffs)
    ranked = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[ranked[j + 1]]) == abs(diffs[ranked[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[ranked[k]] = (i + j) / 2 + 1
        i = j + 1
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_obs = min(w_plus, sum(ranks) - w_plus)
    hits = 0
    for signs in itertools.product((1, -1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s > 0)
        if min(w, sum(ranks) - w) <= w_obs:
            hits += 1
    return hits / 2**n


def test_wilcoxon_exact_matches_enumeration_oracle():
    rng = random.Random(83)
    for n in range(5, 13):
        for _ in range(6):
            a = [rng.uniform(0, 1) for _ in range(n)]
            b = [x + rng.uniform(-0.3, 0.3) for x in a]
            result = wilcoxon_signed_rank(a, b)
            if result.n_used == 0:
                continue
            nonzero = [d for d in result.differences if d != 0]
            expected = _wilcoxon_enumeration_p(nonzero)
            # Enumeration counts min(W+, W-) <= observed directly; the exact
            # two-tailed computation doubles one tail, which matches when the
            # distribution is symmetric (it is, under sign flips).
            assert result.p_value == pytest.approx(min(1.0, expected), rel=1e-9), (n, a, b)


def test_wilcoxon_tied_differences_match_enumeration_oracle():
    # Integer scores on a small range make many |d| ties.
    rng = random.Random(97)
    for n in range(5, 13):
        for _ in range(6):
            a = [float(rng.randint(1, 4)) for _ in range(n)]
            b = [float(rng.randint(1, 4)) for _ in range(n)]
            result = wilcoxon_signed_rank(a, b)
            if result.n_used == 0:
                continue
            nonzero = [d for d in result.differences if d != 0]
            expected = _wilcoxon_enumeration_p(nonzero)
            assert result.p_value == pytest.approx(min(1.0, expected), rel=1e-9), (n, a, b)


def test_wilcoxon_symmetric_in_arguments():
    rng = random.Random(89)
    a = [rng.uniform(0, 2) for _ in range(12)]
    b = [rng.uniform(0, 2) for _ in range(12)]
    directions = [i % 2 == 0 for i in range(12)]
    fwd = wilcoxon_signed_rank(a, b, directions)
    rev = wilcoxon_signed_rank(b, a, directions)
    assert fwd.p_value == pytest.approx(rev.p_value)
    assert fwd.wins_a == rev.wins_b


def test_wilcoxon_needs_five_pairs():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1, 2], [2, 3])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_wilcoxon_rejects_a_non_finite_value(bad):
    # A NaN difference is neither a win nor a loss, yet it would still enter
    # the exact null and halve the p-value.
    a = [0.5, 0.6, 0.7, 0.8, 0.9, 0.4]
    b = [0.6, 0.7, 0.8, 0.9, 1.0, bad]
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_signed_rank(a, b)
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_signed_rank(b, a)


def test_wilcoxon_normal_mode_reasonable():
    rng = random.Random(97)
    a = [rng.uniform(0, 1) for _ in range(60)]
    b = [x + 0.05 + rng.uniform(-0.02, 0.02) for x in a]
    result = wilcoxon_signed_rank(a, b)
    assert result.n_used == 60
    assert result.p_value < 1e-8  # b uniformly better
    balanced = wilcoxon_signed_rank(a, [x + rng.choice([-0.01, 0.01]) for x in a])
    assert balanced.p_value > 0.01


def test_size_pairs_fixture():
    pairs = load_pair_rows(FIXTURES / "model_size_results.csv", "model_s", "model_m")
    assert len(pairs) == 66
    result = compare_pairs(pairs)
    assert result.wins_b == 57
    assert result.wins_a == 9
    assert result.zeros == 0
    assert 1.65e-8 <= result.p_value <= 1.65e-6


def test_finetuning_pairs_fixture():
    # Cross-checks of the same table: finetuned vs base wins at both sizes.
    pairs_s = load_pair_rows(FIXTURES / "model_size_results.csv", "base_s", "model_s")
    result_s = compare_pairs(pairs_s)
    assert result_s.wins_b == 60
    pairs_m = load_pair_rows(FIXTURES / "model_size_results.csv", "base_m", "model_m")
    result_m = compare_pairs(pairs_m)
    assert result_m.wins_b == 63


def test_context_pairs_fixture():
    pairs = load_pair_rows(FIXTURES / "context_ablation_results.csv", "no_context", "with_context")
    assert len(pairs) == 66
    result = compare_pairs(pairs)
    assert result.wins_b == 49
    assert result.wins_a + result.wins_b + result.zeros == 66
    assert 4.9e-7 <= result.p_value <= 4.9e-5


def test_tie_winner_is_read_in_any_case_around_whitespace(tmp_path):
    # Six tied rows, each marked b in some spelling: every tie is a win for b.
    path = tmp_path / "pairs.csv"
    marks = ["b", "B", " b ", " B", "b ", "\tB"]
    rows = ["task,metric,lower_is_better,a,b,tie_winner"]
    rows += [f"t{i},auroc,false,0.5,0.5,{mark}" for i, mark in enumerate(marks)]
    path.write_text("\n".join(rows) + "\n")
    pairs = load_pair_rows(path, "a", "b")
    assert [p.tie_winner for p in pairs] == ["b"] * 6
    result = compare_pairs(pairs)
    assert (result.wins_a, result.wins_b, result.zeros) == (0, 6, 0)


# --- contamination ------------------------------------------------------


def test_contamination_simple_hit():
    assert contamination_scan([("r1", ["ABCD"])], ["xxABCDyy"]) == {"r1": True}


def test_contamination_cap_rule():
    feature = "A" * 512 + "TAIL_NEVER_PRESENT"
    corpus = "noise " + "A" * 512 + " more noise"
    assert contamination_scan([("r1", [feature])], [corpus]) == {"r1": True}


def test_contamination_any_feature_flags_record():
    flags = contamination_scan(
        [("r1", ["MISSING", "HIT"]), ("r2", ["ALSOMISSING"])],
        ["...HIT..."],
    )
    assert flags == {"r1": True, "r2": False}


@pytest.mark.parametrize("max_chars", [0, -1])
def test_contamination_rejects_a_cap_below_one(max_chars):
    # A cap of -1 would search for "CC" and flag "CCO" in this corpus; a cap
    # of 0 would search for nothing and flag no record.
    with pytest.raises(ValueError, match="max_chars must be at least 1"):
        contamination_scan([("r1", ["CCO"])], ["xxCCNxx"], max_chars=max_chars)


def test_contamination_chunk_boundaries():
    # Pattern split across streamed chunks must still match.
    assert contamination_scan([("r1", ["HELLOWORLD"])], ["xxHELLO", "WORLDyy"]) == {"r1": True}


def test_contamination_empty_corpus():
    assert contamination_scan([("r1", ["ABC"])], []) == {"r1": False}


def _chunked(text, rng):
    """text cut at random points, with empty and one-character chunks."""
    cuts = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(0, 12)))
    return [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]


def test_contamination_matches_naive_oracle():
    # Pattern lengths on both sides of the scan's 32-character regex keys,
    # regex metacharacters, non-ASCII text, prefix chains, random caps and
    # random chunk splits.
    rng = random.Random(101)
    for alphabet in ("AB", "AB[](){}.*+?|^$\\", "Aé☃𝔸\n"):
        for _ in range(20):
            corpus = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3000)))
            max_chars = rng.randint(1, 90)
            features = []
            for r in range(25):
                n = rng.randint(1, 80)
                if corpus and rng.random() < 0.6:
                    # Taken from the corpus, sometimes with one character changed.
                    start = rng.randrange(len(corpus))
                    pattern = corpus[start : start + n]
                    if rng.random() < 0.3:
                        k = rng.randrange(len(pattern))
                        pattern = pattern[:k] + rng.choice(alphabet) + pattern[k + 1 :]
                else:
                    pattern = "".join(rng.choice(alphabet) for _ in range(n))
                if rng.random() < 0.2:
                    # A chain of prefixes, in one record or spread over several.
                    chain = [pattern[:k] for k in range(1, len(pattern) + 1, rng.randint(1, 9))]
                    features.append((f"r{r}", chain))
                    features.extend((f"r{r}.{k}", [p]) for k, p in enumerate(chain))
                else:
                    features.append((f"r{r}", [pattern]))
            flags = contamination_scan(features, _chunked(corpus, rng), max_chars=max_chars)
            for record_id, patterns in features:
                expected = any(p[:max_chars] in corpus for p in patterns)
                assert flags[record_id] == expected, (record_id, patterns, max_chars)


def test_contamination_overlapping_patterns():
    features = [(p, [p]) for p in ["he", "she", "his", "hers"]]
    flags = contamination_scan(features, ["ushers"])
    assert flags == {"he": True, "she": True, "his": False, "hers": True}


def test_contamination_flags_follow_the_features_order():
    # The contamination command writes its flags file in this order, so it
    # is the features order, not the order the corpus reveals the hits.
    features = [("z", ["LATE"]), ("a", ["NEVER"]), ("m", ["EARLY"])]
    flags = contamination_scan(features, ["EARLY then LATE"])
    assert list(flags.items()) == [("z", True), ("a", False), ("m", True)]


# Each residue is drawn from a freshly seeded generator, so this is 512 "Y"s,
# a one-letter run that the patterns match at every corpus position.
_SEQUENCE = "".join(random.Random(5).choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(512))
_MUTANTS = [
    _SEQUENCE[:i] + ("Y" if _SEQUENCE[i] == "W" else "W") + _SEQUENCE[i + 1 :]
    for i in range(512)
]
_RNG = random.Random(5)
_PROTEIN = "".join(_RNG.choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(512))
_PROTEIN_MUTANTS = [
    _PROTEIN[:i] + ("Y" if _PROTEIN[i] == "W" else "W") + _PROTEIN[i + 1 :]
    for i in range(512)
]


@pytest.mark.parametrize(
    ("patterns", "corpus", "flagged"),
    [
        # A run of one character that matches a long pattern's first 32.
        (["A" * 511 + "B"], "A" * 200_000, 0),
        (["A" * k + "B" for k in range(511)], "A" * 200_000, 0),
        # A 512-deep chain of prefixes.
        (["A" * k for k in range(1, 513)], "A" * 200_000, 512),
        # Point mutants of a one-letter run.
        ([_SEQUENCE, *_MUTANTS], _SEQUENCE * 1000, 1),
        # Point mutants of a random protein, which share most of their
        # 32-character keys.
        ([_PROTEIN, *_PROTEIN_MUTANTS], _PROTEIN * 1000, 1),
    ],
    ids=["run-vs-long", "run-vs-511", "prefix-chain", "run-point-mutants", "protein-point-mutants"],
)
def test_contamination_adversarial_inputs_finish(patterns, corpus, flagged):
    features = [(f"r{i}", [p]) for i, p in enumerate(patterns)]
    started = time.perf_counter()
    chunks = [corpus[i : i + 65536] for i in range(0, len(corpus), 65536)]
    flags = contamination_scan(features, chunks)
    assert time.perf_counter() - started < 2.0
    assert sum(flags.values()) == flagged


def test_contamination_compiles_only_groups_the_corpus_holds(scan_compiles):
    # Keys are grouped by first character, and a group is compiled only
    # when a chunk holds that character.
    features = [("r1", ["CCO"]), ("r2", ["N#N"]), ("r3", ["[Na+]"]), ("r4", ["CCN"])]
    assert contamination_scan(features, []) == dict.fromkeys(["r1", "r2", "r3", "r4"], False)
    assert contamination_scan(features, ["water", "", "salt"]) == dict.fromkeys(["r1", "r2", "r3", "r4"], False)
    assert scan_compiles == []
    flags = contamination_scan(features, ["water", "", "CCO"])
    assert flags == {"r1": True, "r2": False, "r3": False, "r4": False}
    assert scan_compiles == [2]


def test_contamination_recompiles_a_group_only_after_half_its_keys_retire(scan_compiles):
    # 64 keys with one first character, on both sides of the 32-character
    # key length, found one chunk after another: a group rebuilt on every
    # retired key would compile 64 + 63 + ... + 1 keys.
    patterns = [f"C{i:03d}" + "N" * (i % 40) for i in range(64)]
    chunks = [f"..{p}.." for p in patterns]
    flags = contamination_scan([(p, [p]) for p in patterns], chunks)
    assert all(flags.values())
    assert sum(scan_compiles) <= 2 * len(patterns)
    assert scan_compiles == [64, 32, 16, 8, 4, 2, 1]


_SCAN_ALPHABETS = [
    "CNOcn()[]=#@+-12",  # SMILES
    ".*+?|^$\\()[]{}",  # regex metacharacters
    "Aé☃𝔸\n",  # non-ASCII and a newline
    "CNOcn()[]=#@+-12.*?|^$\\{}é☃𝔸\n",  # many first characters at once
]


@st.composite
def _scan_cases(draw):
    """(features, corpus, chunks, max_chars): patterns on both sides of the
    32-character keys, most taken from the corpus and some of those with one
    character changed, prefix chains, and the corpus cut at random points
    into chunks that may be empty or one character long. The corpus repeats
    words that share a stem, so a key recurs with other text after it before
    the place where a longer pattern that begins with it occurs."""
    alphabet = draw(st.sampled_from(_SCAN_ALPHABETS))
    stem = draw(st.text(alphabet, max_size=40))
    words = [stem + tail for tail in draw(st.lists(st.text(alphabet, min_size=1, max_size=40), min_size=1, max_size=3))]
    pieces = draw(st.lists(st.sampled_from(words) | st.text(alphabet, max_size=40), max_size=16))
    corpus = "".join(pieces)
    # Where each piece begins: a pattern taken there starts with a stem.
    starts = [n for n in itertools.accumulate(map(len, pieces), initial=0) if n < len(corpus)]
    features = []
    for r in range(draw(st.integers(1, 12))):
        if starts and draw(st.booleans()):
            start = draw(st.sampled_from(starts) | st.integers(0, len(corpus) - 1))
            pattern = corpus[start : start + draw(st.integers(1, 80))]
            if draw(st.booleans()):
                k = draw(st.integers(0, len(pattern) - 1))
                pattern = pattern[:k] + draw(st.sampled_from(alphabet)) + pattern[k + 1 :]
        else:
            pattern = draw(st.text(alphabet, min_size=1, max_size=80))
        if draw(st.booleans()):
            step = draw(st.integers(1, 9))
            chain = [pattern[:k] for k in range(1, len(pattern) + 1, step)]
            features.extend((f"r{r}.{k}", [p]) for k, p in enumerate(chain))
        features.append((f"r{r}", [pattern, *draw(st.lists(st.text(alphabet, max_size=40), max_size=2))]))
    cuts = sorted(draw(st.lists(st.integers(0, len(corpus)), max_size=12)))
    chunks = [corpus[a:b] for a, b in zip([0, *cuts], [*cuts, len(corpus)])]
    return features, corpus, chunks, draw(st.integers(1, 90))


@settings(max_examples=300, deadline=None)
@given(_scan_cases())
def test_contamination_flags_match_a_find_per_pattern(case):
    features, corpus, chunks, max_chars = case
    flags = contamination_scan(features, chunks, max_chars=max_chars)
    expected = {
        record_id: any(corpus.find(p[:max_chars]) >= 0 for p in patterns if p)
        for record_id, patterns in features
    }
    assert flags == expected


def test_contamination_fixture_consistency():
    # Transcribed overlap table: percents are valid, and every row carries
    # both an unfiltered and a filtered metric value.
    import csv

    with open(FIXTURES / "contamination_results.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 7
    for row in rows:
        percent = float(row["percent_overlap"])
        assert 0.0 < percent <= 100.0
        float(row["unfiltered"])
        float(row["filtered"])
    assert {r["task"] for r in rows} >= {"TAP", "HuRI", "phase3"}
