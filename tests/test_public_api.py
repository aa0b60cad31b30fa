import importlib

import pytest

LAYERS = ("chem", "bioseq", "corpus", "promptgen", "evalharness", "analysis")

# Public names deleted as unused or duplicate; each must stay gone.
REMOVED = {
    "chem": [
        "ReactantSet",
        "reactant_set_equal",
        "save_fingerprints",
        "load_fingerprints",
        "Fingerprint.to_bytes",
        "Fingerprint.from_bytes",
        "Fingerprint.nbits",
        "parse_reaction_side",
        "Bond.other",
        "canonical_reactant_set",
    ],
    "corpus": ["replace_split", "TaskManifest.role", "SplitSpec", "TaskManifest.feature_type", "validate_manifest"],
    "promptgen": [
        "MixtureSpec",
        "select_shots_knn",
        "fit_length_budget",
        "default_token_estimator",
        "NeighborIndex.select_shots",
        "read_prompt_jsonl",
        "BinningSpec.levels",
        "PromptRecord.shot_count",
    ],
    "evalharness": [
        "GenerationRequest",
        "GenerationRequest.stop",
        "GenerationResponse.logprob",
        "make_stub_client",
        "EvalResult.from_rows",
        "EvalRow.failed",
    ],
    "analysis": ["AhoCorasick.reset", "AhoCorasick", "ScoreboardCounts"],
}


def _resolves(module, dotted: str) -> bool:
    value = module
    for part in dotted.split("."):
        if not hasattr(value, part):
            return False
        value = getattr(value, part)
    return True


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_entry_resolves(layer):
    module = importlib.import_module(f"txf.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("layer", LAYERS)
def test_removed_names_stay_gone(layer):
    module = importlib.import_module(f"txf.{layer}")
    removed = REMOVED.get(layer, [])
    assert not set(removed) & set(module.__all__)
    assert [name for name in removed if _resolves(module, name)] == []
