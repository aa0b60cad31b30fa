import json
import random
import time
from rebuild import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from canonical_reference import cluster_count, exhaustive_canonical, round_refine, unpruned_canonical
from conftest import CANONICAL_WORST_CASES, FIXTURES, MOLECULE_CORPUS, SYMMETRIC_MOLECULES, permute_molecule
from txf.chem import (
    SmilesParseError,
    morgan_fingerprint,
    parse_smiles,
    scaffold_key,
    strip_atom_maps,
    write_canonical,
)
from txf.chem import smiles
from txf.chem.smiles import _dense_ranks, _direction_clusters, _initial_invariant, _refine

SMILES_ALPHABET = "CNOSPFIBrlcnosp()[]=#$:/\\.%@+-*H0123456789"
# Runs of these tokens parse about one time in five, so the pins see molecules.
SMILES_TOKENS = [
    "C", "C", "c", "N", "n", "O", "S", "Cl", "(C)", "(O)", "(=O)", "=", "1", "1", "2",
    "[nH]", "[O-]", "[N+]", "[C@H]", "[C@@H]", "/", "\\", "c1ccccc1",
]
smiles_token_runs = st.lists(st.sampled_from(SMILES_TOKENS), min_size=1, max_size=20).map("".join)

# Written by tests/make_smiles_golden.py.
GOLDEN = json.loads((FIXTURES / "smiles_golden.json").read_text(encoding="utf-8"))


def test_canonical_and_scaffold_strings_match_the_golden_fixture():
    for smiles, canonical, key in GOLDEN["canonical"]:
        mol = parse_smiles(smiles)
        assert (write_canonical(mol), scaffold_key(mol)) == (canonical, key), smiles


@pytest.mark.parametrize("text, message, offset", GOLDEN["errors"])
def test_parse_error_message_and_offset_match_the_golden_fixture(text, message, offset):
    with pytest.raises(SmilesParseError) as err:
        parse_smiles(text)
    assert (str(err.value), err.value.offset) == (message, offset)


def test_ethanol():
    mol = parse_smiles("CCO")
    assert len(mol.atoms) == 3
    assert len(mol.bonds) == 2
    assert all(b.order == 1 for b in mol.bonds)
    assert [a.hcount for a in mol.atoms] == [3, 2, 1]


def test_cyclopropane_ring_closure():
    mol = parse_smiles("C1CC1")
    assert len(mol.atoms) == 3
    assert len(mol.bonds) == 3


def test_uspto_style_atom_maps():
    mol = parse_smiles("[CH2:12]1[C:7]2([CH2:6][CH2:5][O:15][CH2:1][CH2:8]2)[CH2:13][CH2:14][O:10][C:11]1=[O:17]")
    maps = {a.map_num for a in mol.atoms}
    assert {12, 7, 6, 5, 15, 1, 8, 13, 14, 10, 11, 17} == maps


def test_unbalanced_branch_reports_offset():
    with pytest.raises(SmilesParseError) as err:
        parse_smiles("C(")
    assert err.value.offset == 2


def test_unmatched_ring_digit():
    with pytest.raises(SmilesParseError) as err:
        parse_smiles("C1CC")
    assert err.value.offset == 4


def test_unknown_element():
    with pytest.raises(SmilesParseError):
        parse_smiles("[Xq]")


def test_malformed_bracket():
    with pytest.raises(SmilesParseError):
        parse_smiles("[CH2")
    with pytest.raises(SmilesParseError):
        parse_smiles("[C$]")


def test_empty_input():
    with pytest.raises(SmilesParseError):
        parse_smiles("")


def test_bracket_fields():
    mol = parse_smiles("[13C@@H3+2:5]")
    atom = mol.atoms[0]
    assert atom.isotope == 13
    assert atom.chirality == "@@"
    assert atom.hcount == 3
    assert atom.charge == 2
    assert atom.map_num == 5


def test_charge_spellings():
    assert parse_smiles("[O-]").atoms[0].charge == -1
    assert parse_smiles("[Fe++]").atoms[0].charge == 2
    assert parse_smiles("[Fe+2]").atoms[0].charge == 2
    assert parse_smiles("[N+3]").atoms[0].charge == 3


def test_aromatic_hydrogen_counts():
    benzene = parse_smiles("c1ccccc1")
    assert all(a.hcount == 1 for a in benzene.atoms)
    pyridine = parse_smiles("c1ccncc1")
    n = next(a for a in pyridine.atoms if a.symbol == "N")
    assert n.hcount == 0
    pyrrole = parse_smiles("c1cc[nH]c1")
    n = next(a for a in pyrrole.atoms if a.symbol == "N")
    assert n.hcount == 1


def test_percent_ring_numbers():
    mol = parse_smiles("C%10CC%10")
    assert len(mol.bonds) == 3


def test_ring_digit_reuse():
    mol = parse_smiles("C1CC1C1CC1")
    assert len(mol.bonds) == 7


def test_dot_separated_components():
    mol = parse_smiles("CC(=O)[O-].[Na+]")
    assert len(mol.components()) == 2
    assert sorted(len(c) for c in mol.components()) == [1, 4]


def test_canonical_same_graph_same_string():
    assert write_canonical(parse_smiles("OCC")) == write_canonical(parse_smiles("CCO"))
    assert write_canonical(parse_smiles("C(C)(C)O")) == write_canonical(parse_smiles("OC(C)C"))
    assert write_canonical(parse_smiles("c1ccc2ccccc2c1")) == write_canonical(
        parse_smiles("c1ccc2c(c1)cccc2")
    )


def test_canonical_round_trip_idempotent():
    for smiles in MOLECULE_CORPUS:
        first = write_canonical(parse_smiles(smiles))
        again = write_canonical(parse_smiles(first))
        assert first == again, smiles


def test_canonical_round_trip_preserves_graph():
    for smiles in MOLECULE_CORPUS:
        mol = parse_smiles(smiles)
        back = parse_smiles(write_canonical(mol))
        assert len(back.atoms) == len(mol.atoms)
        assert len(back.bonds) == len(mol.bonds)
        assert sorted(a.symbol for a in back.atoms) == sorted(a.symbol for a in mol.atoms)
        assert sorted(a.charge for a in back.atoms) == sorted(a.charge for a in mol.atoms)
        assert sorted(a.hcount for a in back.atoms) == sorted(a.hcount for a in mol.atoms)
        assert sorted(b.order for b in back.bonds) == sorted(b.order for b in mol.bonds)


def test_canonical_invariant_under_100_permutations():
    # Derived permutation harness: a 20-atom molecule relabeled 100 times.
    smiles = "CN1C(=O)CN=C(C2=CCCCC2)c2cc(Cl)ccc21"
    mol = parse_smiles(smiles)
    assert len(mol.atoms) == 20
    expected = write_canonical(mol)
    rng = random.Random(11)
    for _ in range(100):
        assert write_canonical(permute_molecule(mol, rng)) == expected


def test_strip_atom_maps():
    mol = parse_smiles("[CH2:12]C")
    stripped = strip_atom_maps(mol)
    assert all(a.map_num is None for a in stripped.atoms)
    assert stripped.atoms[0].hcount == 2
    plain = parse_smiles("CC")
    assert strip_atom_maps(plain) is plain


def test_strip_then_canonical_matches_unmapped_spelling():
    mapped = "[CH3:1][OH:2]"
    unmapped = "CO"
    assert write_canonical(strip_atom_maps(parse_smiles(mapped))) == write_canonical(
        parse_smiles(unmapped)
    )
    product = "[CH2:12]1[C:7]2([CH2:6][CH2:5][O:15][CH2:1][CH2:8]2)[CH2:13][CH2:14][O:10][C:11]1=[O:17]"
    bare = "C1C2(CCOCC2)CCOC1=O"
    assert write_canonical(strip_atom_maps(parse_smiles(product))) == write_canonical(
        parse_smiles(bare)
    )


def test_stereo_tokens_preserved():
    for smiles in ("F[C@@H](Cl)Br", "C/C=C\\C", "C/C=C/C"):
        out = write_canonical(parse_smiles(smiles))
        assert ("@" in out) == ("@" in smiles)
        assert ("/" in out or "\\" in out) == ("/" in smiles or "\\" in smiles)


def test_enantiomers_differ():
    left = write_canonical(parse_smiles("F[C@H](Cl)Br"))
    right = write_canonical(parse_smiles("F[C@@H](Cl)Br"))
    assert left != right


def test_tetrahedral_respelling_unifies():
    # Swapping two written neighbors and flipping the symbol is the same
    # configuration; the parity correction must unify them.
    a = write_canonical(parse_smiles("N[C@@H](C)C(=O)O"))
    b = write_canonical(parse_smiles("N[C@H](C(=O)O)C"))
    assert a == b


def test_direction_token_flip_unifies():
    # Flipping every token around a double bond spells the same configuration.
    assert write_canonical(parse_smiles("C/C=C\\C")) == write_canonical(parse_smiles("C\\C=C/C"))
    assert write_canonical(parse_smiles("F/C=C/F")) == write_canonical(parse_smiles("F\\C=C\\F"))
    # Opposite configurations stay distinct.
    assert write_canonical(parse_smiles("C/C=C\\C")) != write_canonical(parse_smiles("C/C=C/C"))
    # Independent stereo units normalize independently.
    assert write_canonical(parse_smiles("C/C=C/CCCC/C=C/C")) == write_canonical(
        parse_smiles("C\\C=C\\CCCC/C=C/C")
    )
    # For any number of them: respelling one unit of a long chain.
    for size in (7, 8, 10):
        plain = write_canonical(parse_smiles(_chain([(False, False)] * size)))
        for k in range(size):
            units = [(False, i == k) for i in range(size)]
            assert write_canonical(parse_smiles(_chain(units))) == plain


_FLIP = {"/": "\\", "\\": "/"}


def _chain(units) -> str:
    """A chain of independent double bonds, one (cis, respelled) pair each;
    a respelled unit flips both of its direction tokens."""
    text = "C"
    for cis, respelled in units:
        first, second = "/", "\\" if cis else "/"
        if respelled:
            first, second = _FLIP[first], _FLIP[second]
        text += f"{first}C=C{second}CC"
    return text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=10))
def test_direction_respelling_of_any_clusters_gives_one_string(units):
    plain = [(cis, False) for cis, _ in units]
    assert write_canonical(parse_smiles(_chain(units))) == write_canonical(
        parse_smiles(_chain(plain))
    )


def test_aromatic_single_bond_needs_dash():
    biphenyl = parse_smiles("c1ccc(-c2ccccc2)cc1")
    out = write_canonical(biphenyl)
    back = parse_smiles(out)
    singles = [b for b in back.bonds if b.order == 1]
    assert len(singles) == 1


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=SMILES_ALPHABET, max_size=40) | smiles_token_runs)
def test_random_smiles_text_raises_only_parse_errors(text):
    try:
        mol = parse_smiles(text)
        write_canonical(mol)
        scaffold_key(mol)
        morgan_fingerprint(mol)
    except SmilesParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(smiles_token_runs)
def test_write_canonical_is_idempotent(text):
    try:
        canonical = write_canonical(parse_smiles(text))
    except SmilesParseError:
        return
    assert write_canonical(parse_smiles(canonical)) == canonical


@settings(max_examples=300, deadline=None)
@given(smiles_token_runs, st.data())
def test_flipping_one_direction_cluster_keeps_the_string(text, data):
    try:
        mol = parse_smiles(text)
    except SmilesParseError:
        return
    clusters = {
        bond: (i, cluster)
        for i, comp in enumerate(mol.components())
        for bond, cluster in _direction_clusters(mol, comp).items()
    }
    if not clusters:
        return
    chosen = data.draw(st.sampled_from(sorted(set(clusters.values()))))
    flipped = replace(
        mol,
        bonds=tuple(
            replace(b, direction=_FLIP[b.direction])
            if clusters.get((b.a, b.b)) == chosen
            else b
            for b in mol.bonds
        ),
    )
    assert write_canonical(flipped) == write_canonical(mol)


# Runs rich in direction tokens, double bonds and ring closures, so that
# clusters share atoms, flank one double bond or sit on ring bonds.
_STEREO_TOKENS = ["C", "C", "/", "\\", "=", "C=C", "(C)", "(/C)", "(\\C)", "1", "c1ccccc1", "N", "[C@H]"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_STEREO_TOKENS), min_size=1, max_size=16).map("".join)
    | st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=6).map(_chain)
)
def test_write_canonical_is_the_least_of_all_cluster_respellings(text):
    try:
        mol = parse_smiles(text)
    except SmilesParseError:
        return
    assume(1 <= cluster_count(mol) <= 7)
    assert write_canonical(mol) == exhaustive_canonical(mol)


def _refine_starts(mol, adj, comp, chosen, colours):
    """Ranks _refine starts from: the atoms' invariants, the refined ranks
    with one atom set apart as the canonical search does, and a colouring."""
    initial = _dense_ranks({a: _initial_invariant(mol.atoms[a], len(adj[a])) for a in comp})
    ranks = _refine(adj, initial)
    promoted = _dense_ranks({a: 2 * r - (a == chosen) for a, r in ranks.items()})
    return [initial, promoted, _dense_ranks(dict(zip(comp, colours)))]


@settings(max_examples=300, deadline=None)
@given(smiles_token_runs | st.sampled_from(MOLECULE_CORPUS), st.data())
def test_refine_matches_the_round_by_round_reference(text, data):
    try:
        mol = parse_smiles(text)
    except SmilesParseError:
        return
    adj = mol.neighbors()
    for comp in mol.components():
        chosen = data.draw(st.sampled_from(comp))
        colours = data.draw(st.lists(st.integers(0, 2), min_size=len(comp), max_size=len(comp)))
        for start in _refine_starts(mol, adj, comp, chosen, colours):
            assert _refine(adj, start) == round_refine(adj, start)


@pytest.mark.parametrize(
    "text",
    ["C" * 60, "C1" + "C" * 40 + "C1", "C(" * 30 + "C" + ")C" * 30, "CC(C)" * 20, "c1ccccc1" * 6],
    ids=["chain", "ring", "nested-branches", "methyl-comb", "hexaphenyl"],
)
def test_refine_matches_the_round_by_round_reference_on_long_chains(text):
    mol = parse_smiles(text)
    adj = mol.neighbors()
    (comp,) = mol.components()
    for chosen in comp:
        for start in _refine_starts(mol, adj, comp, chosen, [a % 3 for a in comp]):
            assert _refine(adj, start) == round_refine(adj, start)


@settings(max_examples=200, deadline=None)
@given(smiles_token_runs | SYMMETRIC_MOLECULES, st.randoms(use_true_random=False))
def test_pruned_search_writes_what_the_unpruned_search_writes(text, rng):
    try:
        mol = parse_smiles(text)
    except SmilesParseError:
        return
    permuted = permute_molecule(mol, rng)
    expected = unpruned_canonical(mol)
    assert write_canonical(mol) == expected
    assert write_canonical(permuted) == unpruned_canonical(permuted) == expected


_FLIP_CHIRALITY = {"@": "@@", "@@": "@"}


def _looser_key_partners(mol, rng):
    """Molecules that a memo key looser than the writer's reads would merge
    with ``mol``: each differs from it in one field the key must hold."""
    atoms, bonds = mol.atoms, mol.bonds
    yield replace(mol, atoms=tuple(replace(a, chirality=_FLIP_CHIRALITY.get(a.chirality)) for a in atoms))
    # Every atom bare, as a scaffold's are: a chirality mark then stays as
    # written instead of following the written neighbour order.
    yield replace(mol, atoms=smiles._refill_hydrogens([replace(a, bracket=False) for a in atoms], bonds))
    chiral = [i for i, a in enumerate(atoms) if a.chirality and a.bracket and len(mol.written_order[i]) >= 2]
    if chiral:
        i = rng.choice(chiral)
        order = list(mol.written_order[i])
        order[0], order[1] = order[1], order[0]
        yield replace(mol, written_order=mol.written_order[:i] + (tuple(order),) + mol.written_order[i + 1:])
    directional = [i for i, b in enumerate(bonds) if b.direction]
    if directional:
        i = rng.choice(directional)
        flipped = replace(bonds[i], direction=_FLIP[bonds[i].direction])
        yield replace(mol, bonds=bonds[:i] + (flipped,) + bonds[i + 1:])
    unlabelled = [i for i, a in enumerate(atoms) if a.isotope is None]
    if unlabelled:
        i = rng.choice(unlabelled)
        yield replace(mol, atoms=atoms[:i] + (replace(atoms[i], isotope=0),) + atoms[i + 1:])  # [0CH4] against C
    yield replace(mol, atoms=tuple(replace(a, map_num=i + 1) for i, a in enumerate(atoms)))
    permuted = permute_molecule(mol, rng)
    yield permuted
    # The atoms where they were, joined as the permuted molecule joins its own.
    yield replace(mol, bonds=permuted.bonds)


@settings(max_examples=100, deadline=None)
@given(
    smiles_token_runs | st.sampled_from(MOLECULE_CORPUS) | SYMMETRIC_MOLECULES,
    st.randoms(use_true_random=False),
)
def test_component_memo_never_merges_molecules_the_writer_tells_apart(text, rng):
    try:
        mol = parse_smiles(text)
    except SmilesParseError:
        return
    for partner in _looser_key_partners(mol, rng):
        expected = {id(m): unpruned_canonical(m) for m in (mol, partner)}
        for first, second in ((partner, mol), (mol, partner)):
            smiles._component_memo.clear()
            assert write_canonical(first) == expected[id(first)]
            assert write_canonical(second) == expected[id(second)]


@pytest.mark.parametrize("text", CANONICAL_WORST_CASES.values(), ids=CANONICAL_WORST_CASES.keys())
def test_canonical_search_visits_few_leaves(text, monkeypatch):
    emit = smiles._emit
    leaves = 0

    def counting_emit(*args):
        nonlocal leaves
        leaves += 1
        if leaves > 64:
            raise AssertionError("canonical search passed 64 leaves")
        return emit(*args)

    monkeypatch.setattr(smiles, "_emit", counting_emit)
    write_canonical(parse_smiles(text))


def test_write_canonical_builds_the_adjacency_once(monkeypatch):
    # The component walk reuses the writer's neighbor lists.
    mol = parse_smiles("CN1C(=O)CN=C(c2ccccc2F)c2cc(Cl)ccc21.CCO")
    neighbors = smiles.Molecule.neighbors
    calls = 0

    def counting_neighbors(self):
        nonlocal calls
        calls += 1
        return neighbors(self)

    monkeypatch.setattr(smiles.Molecule, "neighbors", counting_neighbors)
    assert write_canonical(mol) == "C(C)O.C(CN=C(c(c(ccc1)F)c1)c(c2ccc3Cl)c3)(N2C)=O"
    assert calls == 1
    assert [len(c) for c in mol.components()] == [21, 3]
    assert calls == 2


@pytest.mark.parametrize("text", CANONICAL_WORST_CASES.values(), ids=CANONICAL_WORST_CASES.keys())
def test_worst_case_canonical_writes_take_under_a_quarter_second(text, fresh_component_memo):
    mol = parse_smiles(text)
    best = float("inf")
    for _ in range(3):
        fresh_component_memo.clear()  # time the search, not a memo hit
        start = time.perf_counter()
        write_canonical(mol)
        best = min(best, time.perf_counter() - start)
    assert best < 0.25
