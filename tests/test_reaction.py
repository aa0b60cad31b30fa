import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reaction_reference
from conftest import MOLECULE_CORPUS
from txf.chem import canonical_reactant_set, score_reactant_prediction

REACTANT_TOKENS = [
    "C", "c", "N", "O", "S", "Cl", "(C)", "(=O)", "=", "1", "1", "2", "[nH]", "[O-]",
    "[N+]", "[Na+]", "[C@H]", "[C@@H]", "[CH3:1]", "[OH:2]", "/", "\\", "c1ccccc1", ".",
]


def test_component_order_does_not_matter():
    assert score_reactant_prediction("CCO.CC", "CC.CCO")[0] == 1


def test_missing_member_fails():
    assert score_reactant_prediction("CCO", "CCO.CC")[0] == 0


def test_extra_member_fails():
    assert score_reactant_prediction("CCO.CC.O", "CCO.CC")[0] == 0


def test_atom_maps_ignored():
    assert score_reactant_prediction("[CH3:1][OH:2]", "CO")[0] == 1


def test_different_spellings_match():
    assert score_reactant_prediction("OCC", "CCO")[0] == 1


def test_self_equality_for_parseable_inputs():
    for text in ("CCO", "CC(=O)[O-].[Na+]", "c1ccccc1.Cl", "[OH-:15].[Na+]"):
        assert score_reactant_prediction(text, text)[0] == 1


def test_invalid_prediction_scores_zero_and_flags():
    score, valid = score_reactant_prediction("C((", "CCO")
    assert score == 0
    assert valid is False


@pytest.mark.parametrize(
    "text",
    ["C²", "C¹", "٣C", "C٣", "[²CH4]", "[CH²]", "C%1²", "[" + "1" * 5000 + "C]"],
    ids=["C²", "C¹", "٣C", "C٣", "[²CH4]", "[CH²]", "C%1²", "5000-digit-isotope"],
)
def test_non_ascii_digits_and_huge_numbers_are_invalid_predictions(text):
    # str.isdigit accepts "²", which int() rejects, and int() refuses
    # strings past a few thousand digits; both are parse errors.
    assert score_reactant_prediction(text, "CC") == (0, False)


def test_a_5000_atom_chain_scores():
    chain = "C" * 5000
    assert score_reactant_prediction(chain, "CC") == (0, True)
    assert score_reactant_prediction(chain, chain) == (1, True)


def test_invalid_truth_raises():
    with pytest.raises(ValueError):
        score_reactant_prediction("CCO", "C((")


def test_duplicate_components_collapse():
    # set semantics: CC.CC equals CC
    assert score_reactant_prediction("CC.CC", "CC")[0] == 1


def test_canonical_reactant_set_contents():
    rs = canonical_reactant_set("CCO.CC")
    assert rs is not None
    assert len(rs) == 2
    assert canonical_reactant_set("]]") is None


@given(st.lists(st.sampled_from(REACTANT_TOKENS), min_size=1, max_size=24).map("".join))
def test_reactant_set_equals_the_per_component_sets(text):
    assert canonical_reactant_set(text) == reaction_reference.canonical_reactant_set(text)


def _dot_joins(count, seed):
    rng = random.Random(seed)
    return [".".join(rng.choices(MOLECULE_CORPUS, k=rng.randint(1, 4))) for _ in range(count)]


@pytest.mark.parametrize("text", _dot_joins(40, seed=5) + ["[Na+].[Na+]", "C.C", "CC.[CH3:1][OH:2]"])
def test_reactant_set_equals_the_per_component_sets_on_molecules(text):
    expected = reaction_reference.canonical_reactant_set(text)
    assert expected is not None
    assert canonical_reactant_set(text) == expected
