"""Shared helpers: fixture paths, a real-molecule corpus, symmetric
molecules, graph permutation."""

import random
from rebuild import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

from txf.chem import Molecule

FIXTURES = Path(__file__).parent / "fixtures"

# Drug-like molecules drawn from the prompt examples plus common structures;
# used for round-trip and invariance harnesses.
MOLECULE_CORPUS = [
    "CN1C(=O)CN=C(C2=CCCCC2)c2cc(Cl)ccc21",
    "CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "CN1C(=O)CN=C(c2ccccc2F)c2cc(Cl)ccc21",
    "CN1C(=S)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "CP(C)(=O)CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "CN1C(=O)CN=C(c2ccccc2)c2cc([N+](=O)[O-])ccc21",
    "CCN(CC)CCN1C(=O)CN=C(c2ccccc2F)c2cc(Cl)ccc21",
    "O=C1CN=C(c2ccccc2)c2cc(Cl)ccc2N1CC1CC1",
    "C#CCN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "O=C1CN=C(c2ccccc2)c2cc(Cl)ccc2N1CC(F)(F)F",
    "CCS(=O)(=O)CCN1C(=O)CN=C(c2ccccc2F)c2cc(Cl)ccc21",
    "O=C(O)COC(=O)Cc1ccccc1Nc1c(Cl)cccc1Cl",
    "COC1=NC(N)=NC2=C1N=CN2[C@@H]1O[C@H](CO)[C@@H](O)[C@@H]1O",
    "O=S(=O)(O)c1cccc2cccc(Nc3ccccc3)c12",
    "CN1C=C(C2=CC=CC=C21)/C=C\\3/C4=C(C=CC=N4)NC3=O",
    "CC(=O)Oc1ccccc1C(=O)O",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "CC(=O)Nc1ccc(O)cc1",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "CC(=O)[O-].[Na+]",
    "C[N+](C)(C)CCO",
    "NCC(=O)O",
    "N[C@@H](C)C(=O)O",
    "N[C@@H](Cc1ccccc1)C(=O)O",
    "OC[C@H]1O[C@@H](O)[C@H](O)[C@@H](O)[C@@H]1O",
    "c1ccc2ccccc2c1",
    "c1ccc2c(c1)ccc1ccccc12",
    "c1ccc(-c2ccccc2)cc1",
    "c1ccc(Cc2ccccc2)cc1",
    "c1cnc2[nH]ccc2c1",
    "c1ccc2[nH]cnc2c1",
    "c1ccsc1",
    "c1ccoc1",
    "c1cc[nH]c1",
    "c1ccncc1",
    "Clc1ccccc1Cl",
    "FC(F)(F)c1ccccc1",
    "N#Cc1ccccc1",
    "O=[N+]([O-])c1ccccc1",
    "C1CC2(CC1)CCCC2",
    "C1CC2CCC1CC2",
    "C1CCC2(CC1)CCCCC2",
    "CC(C)(C)OC(=O)N1CCC(N)CC1",
    "O=C1CCCCC1",
    "OC1CCCCC1",
    "C1CCNCC1",
    "C1COCCN1",
    "CSCC[C@H](N)C(=O)O",
    "[13CH4]",
    "[NH4+].[Cl-]",
    "CC(C)=CCC/C(C)=C/CO",
    "C/C=C\\C",
    "[CH2:12]1[C:7]2([CH2:6][CH2:5][O:15][CH2:1][CH2:8]2)[CH2:13][CH2:14][O:10][C:11]1=[O:17]",
    "F[C@@H](Cl)Br",
]


def permute_molecule(mol: Molecule, rng: random.Random) -> Molecule:
    """Relabel atoms with a random permutation, preserving the graph."""
    perm = list(range(len(mol.atoms)))  # perm[new] = old
    rng.shuffle(perm)
    inverse = {old: new for new, old in enumerate(perm)}
    atoms = tuple(mol.atoms[old] for old in perm)
    bonds = tuple(replace(b, a=inverse[b.a], b=inverse[b.b]) for b in mol.bonds)
    order = tuple(
        tuple(inverse[x] if isinstance(x, int) else x for x in mol.written_order[old])
        for old in perm
    )
    return Molecule(atoms=atoms, bonds=bonds, written_order=order)


# Symmetric molecules, the hard case of the canonical search: copies of one
# unit on a central atom or round a ring. Units carry stereo centres,
# direction tokens and rings, so the automorphisms found must keep stereo.
# tert-Butyl units go on stars of at most three, which the unpruned
# reference (tests/canonical_reference.py) still finishes.
_UNIT_HEADS = ["C", "N", "O", "c1ccccc1", "C1CC1", "[C@H](F)", "[C@@H](F)", "C=C"]
_UNIT_TAILS = ["", "C", "O", "(C)", "(C)C", "/C=C/C", "\\C=C/C", "[C@H](Cl)O", "C(=O)O"]
_units = st.tuples(st.sampled_from(_UNIT_HEADS), st.sampled_from(_UNIT_TAILS)).map("".join)


def star_smiles(unit: str, copies: int) -> str:
    return "C" + f"({unit})" * (copies - 1) + unit


def ring_smiles(unit: str, size: int) -> str:
    return f"C%99({unit})" + f"C({unit})" * (size - 2) + f"C%99({unit})"


SYMMETRIC_MOLECULES = st.one_of(
    st.builds(star_smiles, _units, st.integers(2, 4)),
    st.builds(star_smiles, st.just("C(C)(C)C"), st.integers(2, 3)),
    st.builds(ring_smiles, _units, st.integers(3, 6)),
    st.sampled_from([
        "C12C3C4C1C5C2C3C45",  # cubane
        "C1C2CC3CC1CC(C2)C3",  # adamantane
        "Cc1c(C)c(C)c(C)c(C)c1C",
        "c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67",  # coronene
        "C1CC1.C1CC1.C1CC1",
        "F[C@@H]1C[C@H](F)C1",
        "C(/C=C/C)(/C=C/C)(/C=C\\C)/C=C\\C",
    ]),
)


# The inputs whose canonical search once stalled: symmetric groups multiply
# the leaves of an unpruned search (tetra-tert-butylmethane takes 31,104,
# the 200-atom ring 400), and long chains and rings cost refinement rounds.
_TBU = "C(C)(C)C"
CANONICAL_WORST_CASES = {
    "tetra-tert-butylmethane": star_smiles(_TBU, 4),
    "tri-tert-butylmethane": star_smiles(_TBU, 3),
    "chain-1000": "C" * 1000,
    "chain-1400": "C" * 1400,
    "ring-50": "C1" + "C" * 48 + "C1",
    "ring-100": "C1" + "C" * 98 + "C1",
    "ring-200": "C1" + "C" * 198 + "C1",
    "hexa-tert-butylcyclohexane": ring_smiles(_TBU, 6),
}


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(autouse=True)
def fresh_component_memo(monkeypatch) -> dict:
    """An empty canonical-component memo for each test, so a test's writes
    search as they would in a new process."""
    from txf.chem import smiles

    memo: dict = {}
    monkeypatch.setattr(smiles, "_component_memo", memo)
    return memo


@pytest.fixture(autouse=True)
def fresh_feature_memos(monkeypatch):
    """Empty feature-conversion memos for each test, so a test converts each
    string as it would in a new process; calling the returned function empties
    them again, as for the next process."""
    from txf import corpus

    def empty():
        for name in ("_molecules", "_scaffolds", "_fingerprints", "_sequences", "_pairs"):
            monkeypatch.setattr(corpus, name, {})

    empty()
    return empty


@pytest.fixture
def scan_compiles(monkeypatch) -> list[int]:
    """The number of keys each regex the contamination scan compiles
    spells, in the order the scan compiles them."""
    from txf import contamination

    counts: list[int] = []
    compile_keys = contamination._longest_key_regex

    def counting(keys):
        keys = list(keys)
        counts.append(len(keys))
        return compile_keys(keys)

    monkeypatch.setattr(contamination, "_longest_key_regex", counting)
    return counts
