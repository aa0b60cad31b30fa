import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reaction_reference
from conftest import MOLECULE_CORPUS
from txf.chem import Reactants, SmilesParseError, score_reactant_prediction

REACTANT_TOKENS = [
    "C", "c", "N", "O", "S", "Cl", "(C)", "(=O)", "=", "1", "1", "2", "[nH]", "[O-]",
    "[N+]", "[Na+]", "[C@H]", "[C@@H]", "[CH3:1]", "[OH:2]", "/", "\\", "c1ccccc1", ".",
]


def score(answer, truth):
    return score_reactant_prediction(answer, Reactants.parse(truth))


def canonical_or_none(text):
    try:
        return Reactants.parse(text).canonical()
    except SmilesParseError:
        return None


def test_component_order_does_not_matter():
    assert score("CCO.CC", "CC.CCO")[0] == 1


def test_missing_member_fails():
    assert score("CCO", "CCO.CC")[0] == 0


def test_extra_member_fails():
    assert score("CCO.CC.O", "CCO.CC")[0] == 0


def test_atom_maps_ignored():
    assert score("[CH3:1][OH:2]", "CO")[0] == 1


def test_different_spellings_match():
    assert score("OCC", "CCO")[0] == 1


def test_self_equality_for_parseable_inputs():
    for text in ("CCO", "CC(=O)[O-].[Na+]", "c1ccccc1.Cl", "[OH-:15].[Na+]"):
        assert score(text, text)[0] == 1


def test_invalid_prediction_scores_zero_and_flags():
    value, valid = score("C((", "CCO")
    assert value == 0
    assert valid is False


@pytest.mark.parametrize(
    "text",
    ["C²", "C¹", "٣C", "C٣", "[²CH4]", "[CH²]", "C%1²", "[" + "1" * 5000 + "C]"],
    ids=["C²", "C¹", "٣C", "C٣", "[²CH4]", "[CH²]", "C%1²", "5000-digit-isotope"],
)
def test_non_ascii_digits_and_huge_numbers_are_invalid_predictions(text):
    # str.isdigit accepts "²", which int() rejects, and int() refuses
    # strings past a few thousand digits; both are parse errors.
    assert score(text, "CC") == (0, False)


def test_a_5000_atom_chain_scores():
    chain = "C" * 5000
    assert score(chain, "CC") == (0, True)
    assert score(chain, chain) == (1, True)


def test_invalid_truth_raises():
    with pytest.raises(SmilesParseError):
        Reactants.parse("C((")


def test_duplicate_components_collapse():
    # set semantics: CC.CC equals CC
    assert score("CC.CC", "CC")[0] == 1


def test_canonical_reactant_set_contents():
    assert len(Reactants.parse("CCO.CC").canonical()) == 2
    assert canonical_or_none("]]") is None


@given(st.lists(st.sampled_from(REACTANT_TOKENS), min_size=1, max_size=24).map("".join))
def test_reactant_set_equals_the_per_component_sets(text):
    assert canonical_or_none(text) == reaction_reference.canonical_reactant_set(text)


def _dot_joins(count, seed):
    rng = random.Random(seed)
    return [".".join(rng.choices(MOLECULE_CORPUS, k=rng.randint(1, 4))) for _ in range(count)]


# Beyond the corpus: the two-letter aromatic bracket atoms, the wildcard in
# and out of brackets, and an aromatic bond between non-aromatic atoms, which
# the writer spells ":".
_RARE_SPELLINGS = ["c1cc[se]c1", "c1cc[te]c1", "c1cc[as]cc1", "[*]CC", "*CC(*)O", "C:C", "C1:C:C:C1.CC"]


@pytest.mark.parametrize(
    "text", _dot_joins(40, seed=5) + ["[Na+].[Na+]", "C.C", "CC.[CH3:1][OH:2]"] + _RARE_SPELLINGS
)
def test_reactant_set_equals_the_per_component_sets_on_molecules(text):
    expected = reaction_reference.canonical_reactant_set(text)
    assert expected is not None
    assert Reactants.parse(text).canonical() == expected


def _reference_score(predicted, truth):
    """Scoring as it was before compositions: both sides written canonically."""
    predicted_set = reaction_reference.canonical_reactant_set(predicted)
    if predicted_set is None:
        return 0, False
    return (1 if predicted_set == reaction_reference.canonical_reactant_set(truth) else 0), True


# Spellings whose components share compositions within a group: respellings,
# atom-mapped spellings, isomers, cis/trans isomers and enantiomers.
# ("CCO" and "COC" differ in their atoms' H counts, so in composition.)
_SHARED_COMPOSITIONS = [
    ["CCO", "OCC", "[CH3:1][CH2:2][OH:3]", "COC", "[CH3:4]O[CH3:5]"],
    ["CC(C)CCC", "CCC(C)CC", "C(C)CC(C)C", "[CH3:1][CH:2]([CH3:3])CCC"],
    ["Cc1ccccc1C", "Cc1cccc(C)c1", "Cc1ccc(C)cc1", "[CH3:9]c1ccc(C)cc1"],
    ["C/C=C/C", "C/C=C\\C", "C\\C=C\\C", "CC=CC"],
    ["N[C@@H](C)C(=O)O", "N[C@H](C)C(=O)O", "C[C@H](N)C(=O)O", "NC(C)C(=O)O", "[NH2:1][C@@H:2](C)C(=O)O"],
    ["CC", "[CH3:1][CH3:2]", "CC.CC"],
    ["[Na+]", "[Na+:3]"],
    ["[Cl-]", "Cl"],
]


@st.composite
def _shared_composition_pairs(draw):
    """(answer, truth) made from the same groups: the answer's components
    are respelled, permuted, repeated or left out."""
    groups = draw(st.lists(st.sampled_from(_SHARED_COMPOSITIONS), min_size=1, max_size=3))
    truth = ".".join(draw(st.sampled_from(g)) for g in groups)
    answer_groups = draw(st.permutations(groups)) + draw(st.lists(st.sampled_from(groups), max_size=2))
    if len(answer_groups) > 1 and draw(st.booleans()):
        answer_groups.pop(draw(st.integers(0, len(answer_groups) - 1)))
    return ".".join(draw(st.sampled_from(g)) for g in answer_groups), truth


_reactant_runs = st.lists(st.sampled_from(REACTANT_TOKENS), min_size=1, max_size=16).map("".join)


@settings(max_examples=300, deadline=None)
@given(_shared_composition_pairs() | st.tuples(_reactant_runs, st.sampled_from(MOLECULE_CORPUS)))
def test_score_equals_the_canonical_set_reference(pair):
    answer, truth = pair
    expected = _reference_score(answer, truth)
    assert score(answer, truth) == expected
