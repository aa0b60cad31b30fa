import importlib
from rebuild import replace

import pytest

from txf import analysis, contamination, evalharness, transport
from txf.analysis import wilcoxon_signed_rank
from txf.bioseq import BioSequence, top_k_identity
from txf.chem import Atom, Bond, Fingerprint, Molecule, top_k_tanimoto
from txf.corpus import DataRecord, FeatureTable, RoleSpec, TaskManifest, assign_splits
from txf.evalharness import MajorityClient, accuracy, evaluate_task
from txf.promptgen import NeighborIndex, build_mixture, select_shots_random

LAYERS = ("chem", "bioseq", "corpus", "promptgen", "evalharness", "transport", "analysis", "contamination")

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
        "BinningSpec",
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
    "analysis": ["AhoCorasick.reset", "AhoCorasick", "ScoreboardCounts", "filtered_eval", "ContaminationReport"],
    "contamination": ["ContaminationReport"],
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


@pytest.mark.parametrize("name", ["contamination_scan"])
def test_analysis_re_exports_the_one_scan(name):
    # The benchmark's traced run wraps the scan through analysis.__all__.
    assert name in analysis.__all__
    assert getattr(analysis, name) is getattr(contamination, name)


def test_evalharness_re_exports_the_http_client():
    # The benchmark's traced run takes HttpModelClient from evalharness and
    # wraps its generate.
    assert "HttpModelClient" in evalharness.__all__
    assert evalharness.HttpModelClient is transport.HttpModelClient


_TASK = TaskManifest(
    task_id="toy",
    task_kind="binary",
    roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
    instruction="Answer the question.",
    context="Some context.",
    question="Is it active?\n\n(A) no (B) yes",
    label_column="Y",
    metric="auroc",
    split_method="random",
)
_RECORD = DataRecord("r0", {"drug": "CCO"}, True)


def _molecule(atoms, *bonds):
    return Molecule(tuple(Atom("C") for _ in range(atoms)), tuple(Bond(a, b) for a, b in bonds))


def _wilcoxon(b, directions):
    return wilcoxon_signed_rank([0.1, 0.2, 0.3, 0.4, 0.5], b, directions)


# Each library input check: a call that breaks it, and the ValueError's message.
_INPUT_CHECKS = {
    "molecule-without-atoms": (lambda: _molecule(0), "molecule must contain at least one atom"),
    "molecule-self-bond": (lambda: _molecule(2, (1, 1)), "self-bond"),
    "molecule-bond-to-a-missing-atom": (lambda: _molecule(2, (0, 2)), "bond references missing atom"),
    "molecule-duplicate-bond": (lambda: _molecule(2, (0, 1), (1, 0)), "duplicate bond"),
    "bioseq-unknown-kind": (lambda: BioSequence("ACD", kind="rna"), "unknown sequence kind 'rna'"),
    "wilcoxon-unequal-lengths": (lambda: _wilcoxon([0.1] * 4, False), "paired inputs must have equal length"),
    "wilcoxon-directions-length": (lambda: _wilcoxon([0.2] * 5, [False] * 4), "directions length mismatch"),
    "accuracy-unequal-lengths": (lambda: accuracy(["a"], []), "length mismatch"),
    "accuracy-empty": (lambda: accuracy([], []), "empty input"),
    "evaluate-concurrency-0": (
        lambda: evaluate_task(_TASK, [], MajorityClient(), concurrency=0), "concurrency must be >= 1",
    ),
    "select-shots-n-0": (lambda: select_shots_random([_RECORD], 0, seed=1), "n must be >= 1"),
    "nearest-k-0": (
        lambda: NeighborIndex(_TASK, [_RECORD], FeatureTable()).nearest(_RECORD.features, 0), "k must be >= 1",
    ),
    # build_mixture is a generator, so its checks run at the first prompt.
    "mixture-of-no-tasks": (lambda: next(build_mixture({}, 1)), "no tasks to mix"),
    "mixture-task-without-train-records": (
        lambda: next(build_mixture({"toy": (_TASK, [replace(_RECORD, split="test")])}, 1)), "toy: no train records",
    ),
    "temporal-split-without-timestamps": (
        lambda: assign_splits(
            [_RECORD], replace(_TASK, split_method="temporal", timestamp_column="Year"), 1, FeatureTable()
        ),
        "temporal split needs timestamps on every record",
    ),
    "top-k-tanimoto-empty-pool": (lambda: top_k_tanimoto(Fingerprint(1), [], 1), "empty fingerprint pool"),
    "top-k-tanimoto-k-0": (lambda: top_k_tanimoto(Fingerprint(1), [Fingerprint(1)], 0), "k must be positive"),
    "top-k-identity-empty-pool": (lambda: top_k_identity(BioSequence("ACD"), [], 1), "empty sequence pool"),
    "top-k-identity-k-0": (
        lambda: top_k_identity(BioSequence("ACD"), [BioSequence("ACD")], 0), "k must be positive",
    ),
}


@pytest.mark.parametrize("name", _INPUT_CHECKS)
def test_each_input_check_raises_value_error(name):
    call, message = _INPUT_CHECKS[name]
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
