import json
import random

import pytest

from conftest import FIXTURES, MOLECULE_CORPUS, permute_molecule
from txf.chem import (
    Fingerprint,
    morgan_fingerprint,
    parse_smiles,
    tanimoto,
    top_k_tanimoto,
)

# Written by tests/make_fingerprint_golden.py.
GOLDEN = json.loads((FIXTURES / "fingerprint_golden.json").read_text(encoding="utf-8"))


def test_fingerprint_bits_match_the_golden_fixture():
    for smiles, positions in GOLDEN["bits"]:
        expected = sum(1 << i for i in positions)
        assert morgan_fingerprint(parse_smiles(smiles)).bits == expected, smiles


def _environment_count(mol, radius):
    """Independent oracle: count distinct neighborhoods by recursive
    tree-unfolding signatures instead of iterative hashing."""

    adj = mol.neighbors()

    def signature(atom_idx, r, came_from=None):
        atom = mol.atoms[atom_idx]
        props = (atom.symbol, atom.charge, len(adj[atom_idx]), atom.hcount, atom.aromatic)
        if r == 0:
            return props
        shells = sorted(
            (bond.order, signature(nbr, r - 1))
            for nbr, bond in adj[atom_idx]
        )
        return (props, tuple(shells))

    seen = set()
    for r in range(radius + 1):
        for i in range(len(mol.atoms)):
            seen.add((r, signature(i, r)))
    return len(seen)


def test_determinism_across_spellings():
    a = morgan_fingerprint(parse_smiles("CCO"))
    b = morgan_fingerprint(parse_smiles("OCC"))
    assert a.bits == b.bits


def test_ethanol_bitcount_matches_environment_oracle():
    # The usual reference toolkit is unavailable here; the oracle enumerates
    # distinct (atom, radius) environments under the same invariant set via
    # an independent recursive traversal. Ethanol has 9 distinct
    # environments at radius 2 and no bit collisions at width 2048.
    mol = parse_smiles("CCO")
    fp = morgan_fingerprint(mol)
    assert fp.popcount == _environment_count(mol, 2) == 9


def test_mapped_and_unmapped_fingerprints_match():
    mapped = morgan_fingerprint(parse_smiles("[CH3:1][OH:2]"))
    plain = morgan_fingerprint(parse_smiles("CO"))
    assert mapped.bits == plain.bits


def test_permutation_invariance_corpus():
    rng = random.Random(5)
    for smiles in MOLECULE_CORPUS[:20]:
        mol = parse_smiles(smiles)
        expected = morgan_fingerprint(mol).bits
        for _ in range(20):
            assert morgan_fingerprint(permute_molecule(mol, rng)).bits == expected


def test_tanimoto_identity_and_disjoint():
    a = Fingerprint(bits=0b1011)
    b = Fingerprint(bits=0b0100)
    assert tanimoto(a, a) == 1.0
    assert tanimoto(a, b) == 0.0


def test_tanimoto_subset():
    a = Fingerprint(bits=0b0011)
    b = Fingerprint(bits=0b1111)
    assert tanimoto(a, b) == 0.5


def test_tanimoto_empty_pair():
    empty = Fingerprint(bits=0)
    assert tanimoto(empty, empty) == 1.0


def test_bits_outside_2048_rejected():
    assert Fingerprint(bits=(1 << 2048) - 1).popcount == 2048
    for bits in (1 << 2048, -1):
        with pytest.raises(ValueError):
            Fingerprint(bits=bits)


def test_tanimoto_symmetric_and_bounded():
    rng = random.Random(3)
    fps = [Fingerprint(bits=rng.getrandbits(256)) for _ in range(30)]
    for i in range(0, 30, 3):
        for j in range(1, 30, 7):
            s = tanimoto(fps[i], fps[j])
            assert 0.0 <= s <= 1.0
            assert s == tanimoto(fps[j], fps[i])


def test_top_k_exact_match_first():
    mols = [parse_smiles(s) for s in MOLECULE_CORPUS[:12]]
    pool = [morgan_fingerprint(m) for m in mols]
    hits = top_k_tanimoto(pool[7], pool, 3)
    assert hits[0] == (7, 1.0)


def test_top_k_clamps_to_pool_size():
    pool = [Fingerprint(bits=1 << i) for i in range(4)]
    hits = top_k_tanimoto(pool[0], pool, 9)
    assert len(hits) == 4


def test_top_k_matches_naive_scan():
    rng = random.Random(17)
    pool = [Fingerprint(bits=rng.getrandbits(128)) for _ in range(1000)]
    query = Fingerprint(bits=rng.getrandbits(128))
    naive = sorted(
        ((i, tanimoto(query, fp)) for i, fp in enumerate(pool)),
        key=lambda item: (-item[1], item[0]),
    )[:25]
    assert top_k_tanimoto(query, pool, 25) == naive
