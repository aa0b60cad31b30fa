import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txf.bioseq import (
    AMINO_ACID,
    NUCLEOTIDE,
    BioSequence,
    _lcs_length,
    identity_bound,
    percent_identity,
    top_k_identity,
)

MATCH, MISMATCH, GAP = 1, -1, -2


def _best_alignment_bruteforce(a: str, b: str):
    """Enumerate every global alignment of two short strings; return the
    maximum score and, among optimal alignments, the best identity."""

    results = []

    def walk(i, j, score, matches, length):
        if i == len(a) and j == len(b):
            results.append((score, matches, length))
            return
        if i < len(a) and j < len(b):
            s = MATCH if a[i] == b[j] else MISMATCH
            walk(i + 1, j + 1, score + s, matches + (a[i] == b[j]), length + 1)
        if i < len(a):
            walk(i + 1, j, score + GAP, matches, length + 1)
        if j < len(b):
            walk(i, j + 1, score + GAP, matches, length + 1)

    walk(0, 0, 0, 0, 0)
    best = max(score for score, _, _ in results)
    identities = [100.0 * m / l for score, m, l in results if score == best]
    return best, identities


def test_identical_sequences():
    assert percent_identity(BioSequence("MKTV"), BioSequence("MKTV")) == 100.0


def test_disjoint_sequences():
    assert percent_identity(BioSequence("AAAA"), BioSequence("CCCC")) == 0.0


def test_known_alignment():
    # ACGT vs ACT aligns as AC-T against ACGT: 3 matches over length 4.
    a = BioSequence("ACGT", NUCLEOTIDE)
    b = BioSequence("ACT", NUCLEOTIDE)
    assert percent_identity(a, b) == 75.0


def test_matches_bruteforce_oracle_on_short_strings():
    rng = random.Random(29)
    alphabet = "ACGT"
    for _ in range(40):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        best, identities = _best_alignment_bruteforce(a, b)
        got = percent_identity(BioSequence(a, NUCLEOTIDE), BioSequence(b, NUCLEOTIDE))
        assert any(abs(got - ident) < 1e-9 for ident in identities), (a, b, got, identities)


def test_symmetry():
    rng = random.Random(31)
    for _ in range(20):
        a = "".join(rng.choice("ACDEFGHIK") for _ in range(rng.randint(3, 12)))
        b = "".join(rng.choice("ACDEFGHIK") for _ in range(rng.randint(3, 12)))
        assert percent_identity(BioSequence(a), BioSequence(b)) == pytest.approx(
            percent_identity(BioSequence(b), BioSequence(a))
        )


def test_hundred_iff_equal():
    rng = random.Random(37)
    for _ in range(20):
        a = "".join(rng.choice("ACDEFG") for _ in range(rng.randint(2, 10)))
        assert percent_identity(BioSequence(a), BioSequence(a)) == 100.0
        i = rng.randrange(len(a))
        mutated = a[:i] + ("W" if a[i] != "W" else "Y") + a[i + 1 :]
        assert percent_identity(BioSequence(a), BioSequence(mutated)) < 100.0


def test_identity_decreases_under_progressive_corruption():
    # Corrupting distinct positions with a residue unused elsewhere keeps the
    # diagonal alignment optimal, so identity drops by exactly 1/n each step.
    rng = random.Random(41)
    base = "".join(rng.choice("ACDEFGHIKLMN") for _ in range(30))
    positions = rng.sample(range(30), 10)
    corrupted = list(base)
    previous = 100.0
    for count, pos in enumerate(positions, 1):
        corrupted[pos] = "W"
        got = percent_identity(BioSequence(base), BioSequence("".join(corrupted)))
        assert got <= previous + 1e-9
        assert got == pytest.approx(100.0 * (30 - count) / 30)
        previous = got


def test_kind_mismatch():
    with pytest.raises(ValueError):
        percent_identity(BioSequence("ACGT", NUCLEOTIDE), BioSequence("ACGT", AMINO_ACID))


def test_alphabet_enforced():
    with pytest.raises(ValueError):
        BioSequence("ACGT1", NUCLEOTIDE)
    with pytest.raises(ValueError):
        BioSequence("", NUCLEOTIDE)
    # lowercase input is normalized
    assert BioSequence("acgt", NUCLEOTIDE).residues == "ACGT"


def test_top_k_query_in_pool_first():
    pool = [BioSequence(s) for s in ("MKTV", "MKTA", "GGGG", "MKTV")]
    hits = top_k_identity(BioSequence("MKTV"), pool, 2)
    assert hits[0] == (0, 100.0)
    assert hits[1] == (3, 100.0)


def test_top_k_clamps():
    pool = [BioSequence("MKTV"), BioSequence("AAAA")]
    assert len(top_k_identity(BioSequence("MKTV"), pool, 10)) == 2


def test_top_k_matches_naive_scan():
    rng = random.Random(43)
    pool = [
        BioSequence("".join(rng.choice("ACDEFGHIKL") for _ in range(rng.randint(5, 12))))
        for _ in range(500)
    ]
    query = BioSequence("ACDEFGHIKL")
    naive = sorted(
        ((i, percent_identity(query, s)) for i, s in enumerate(pool)),
        key=lambda item: (-item[1], item[0]),
    )[:10]
    assert top_k_identity(query, pool, 10) == naive


# --- identity bound ----------------------------------------------------

_SHORT = st.text(alphabet="ACDEW", min_size=1, max_size=12)


def _lcs_dp(a: str, b: str) -> int:
    """Longest common subsequence length by the textbook dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


@settings(max_examples=300, deadline=None)
@given(a=_SHORT, b=_SHORT)
def test_identity_bound_is_an_lcs_bound_on_percent_identity(a, b):
    assert _lcs_length(a, b) == _lcs_dp(a, b)
    x, y = BioSequence(a), BioSequence(b)
    assert identity_bound(x, y) >= percent_identity(x, y)


@settings(max_examples=200, deadline=None)
@given(a=st.text(alphabet="ACDEFGHIKLMNPQRSTVWYX", min_size=1, max_size=40))
def test_percent_identity_of_a_sequence_with_itself_is_100(a):
    assert percent_identity(BioSequence(a), BioSequence(a)) == 100.0
