"""The process-wide memo of canonical component strings in
``txf.chem.smiles``: what it shares, its bound, and its use from threads.
Each test starts from an empty memo (``conftest.fresh_component_memo``)."""

import sys
import threading

import pytest

from canonical_reference import unpruned_canonical
from conftest import MOLECULE_CORPUS
from txf.chem import Reactants, parse_smiles, score_reactant_prediction, strip_atom_maps, write_canonical
from txf.chem import smiles


@pytest.fixture
def searches(monkeypatch) -> list[str]:
    """The string of each component search, in order."""
    found = []
    search = smiles._canonical_search

    def counting_search(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(smiles, "_canonical_search", counting_search)
    return found


def test_bare_bracket_and_map_stripped_spellings_share_one_search(searches):
    spellings = [
        parse_smiles("CC(=O)O"),
        parse_smiles("[CH3][C](=[O])[OH]"),
        strip_atom_maps(parse_smiles("[CH3:4][C:1](=[O:2])[OH:3]")),
    ]
    assert {write_canonical(mol) for mol in spellings} == {unpruned_canonical(spellings[0])}
    assert len(searches) == 1


def test_scoring_searches_each_distinct_component_once(searches):
    truth = Reactants.parse("CC(=O)O.OCC")
    answers = [
        "CC(=O)O.OCC",
        "[CH3:1][C:2](=[O:3])[OH:4].[OH:5][CH2:6][CH3:7]",
        "OCC.CC(=O)O",
        "CC(=O)O.CCO",  # ethanol in another atom order: one more search
        "[CH3:1][C:2](=[O:3])[OH:4].[CH3:7][CH2:6][OH:5]",
    ]
    assert [score_reactant_prediction(answer, truth) for answer in answers] == [(1, True)] * 5
    assert len(searches) == 3 and len(set(searches)) == 2


def test_memo_stays_within_its_cap(monkeypatch, fresh_component_memo, searches):
    monkeypatch.setattr(smiles, "_COMPONENT_MEMO_SIZE", 8)
    chains = [parse_smiles("C" * n) for n in range(1, 30)]
    written = []
    for mol in chains:
        written.append(write_canonical(mol))
        assert len(fresh_component_memo) <= 8
    assert written == [unpruned_canonical(mol) for mol in chains]
    assert len(searches) == 29
    # The last entries are still there; the first were cleared.
    assert write_canonical(chains[-1]) == written[-1] and len(searches) == 29
    assert write_canonical(chains[0]) == written[0] and len(searches) == 30


def test_threads_sharing_the_memo_write_identical_strings(monkeypatch, fresh_component_memo):
    molecules = [parse_smiles(text) for text in MOLECULE_CORPUS]
    expected = [write_canonical(mol) for mol in molecules]
    fresh_component_memo.clear()
    # A cap below the corpus size, so threads clear the memo under each other.
    monkeypatch.setattr(smiles, "_COMPONENT_MEMO_SIZE", 16)
    results = [None] * 4

    def write_all(slot: int) -> None:
        results[slot] = [write_canonical(mol) for mol in molecules * 3]

    threads = [threading.Thread(target=write_all, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected * 3] * 4
