"""Value semantics of txf's record classes: equality by class and fields,
a hash of the field tuple on the frozen ones and none on the mutable ones,
frozen attributes, and the ``Name(field=value, ...)`` repr."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import txf
from txf.analysis import ComparisonResult, PairRow, ScoreRow
from txf.bioseq import BioSequence
from txf.chem import Atom, Bond, Fingerprint, Molecule
from txf.corpus import DataRecord, LoadedTable, RoleSpec, TaskManifest
from txf.evalharness import EvalResult, EvalRow, GenerationResponse
from txf.promptgen import PromptRecord

_ROLE = dict(name="drug", kind="smiles", column="Drug", label="Drug SMILES")
_MANIFEST = dict(
    task_id="bbb", task_kind="binary", roles=(RoleSpec(**_ROLE),), instruction="Classify.",
    context="Ctx.", question="Does {drug} cross?", label_column="Y", metric="auroc", split_method="random",
)
_RECORD = dict(record_id="r1", features={"drug": "CCO"}, label=True)
_ROW = dict(
    record_id="r1", subtask=None, target="(B)", completion="(B)", prediction="(B)", truth="(B)",
    score=1.0, valid=True,
)


def _molecule(**changes):
    fields = dict(atoms=(Atom("C"), Atom("O", charge=-1)), bonds=(Bond(0, 1),))
    return Molecule(**{**fields, **changes})


# (class, fields in order, keyword arguments, one changed argument, repr)
FROZEN = [
    (ScoreRow, ("task", "feature_type", "metric", "lower_is_better", "sota", "model"),
     dict(task="bbb", feature_type="smiles", metric="auroc", lower_is_better=False, sota=0.9, model=0.85),
     dict(model=0.8),
     "ScoreRow(task='bbb', feature_type='smiles', metric='auroc', lower_is_better=False, sota=0.9, model=0.85)"),
    (PairRow, ("task", "metric", "lower_is_better", "a", "b", "tie_winner"),
     dict(task="bbb", metric="mae", lower_is_better=True, a=0.8, b=0.7),
     dict(tie_winner="a"),
     "PairRow(task='bbb', metric='mae', lower_is_better=True, a=0.8, b=0.7, tie_winner=None)"),
    (BioSequence, ("residues", "kind"),
     dict(residues="mktl"),
     dict(kind="nucleotide", residues="ACGT"),
     "BioSequence(residues='MKTL', kind='amino_acid')"),
    (RoleSpec, ("name", "kind", "column", "label"),
     _ROLE,
     dict(label="Drug"),
     "RoleSpec(name='drug', kind='smiles', column='Drug', label='Drug SMILES')"),
    (TaskManifest, (
        "task_id", "task_kind", "roles", "instruction", "context", "question", "label_column", "metric",
        "split_method", "label_range", "cold_start_role", "combination_roles", "timestamp_column",
        "subtask_column",
    ),
     _MANIFEST,
     dict(subtask_column="Assay"),
     "TaskManifest(task_id='bbb', task_kind='binary', roles=(RoleSpec(name='drug', kind='smiles', "
     "column='Drug', label='Drug SMILES'),), instruction='Classify.', context='Ctx.', "
     "question='Does {drug} cross?', label_column='Y', metric='auroc', split_method='random', "
     "label_range=None, cold_start_role=None, combination_roles=None, timestamp_column=None, "
     "subtask_column=None)"),
    (GenerationResponse, ("text", "option_scores", "latency"),
     dict(text="(B)", latency=0.5),
     dict(latency=0.25),
     "GenerationResponse(text='(B)', option_scores=None, latency=0.5)"),
    (PromptRecord, (
        "task_id", "record_id", "split", "prompt", "target", "shot_ids", "estimated_length", "over_budget",
        "subtask",
    ),
     dict(task_id="bbb", record_id="r1", split="test", prompt="Answer:", target="(B)", shot_ids=("s1",)),
     dict(over_budget=True),
     "PromptRecord(task_id='bbb', record_id='r1', split='test', prompt='Answer:', target='(B)', "
     "shot_ids=('s1',), estimated_length=0, over_budget=False, subtask=None)"),
    (Fingerprint, ("bits", "popcount"),
     dict(bits=0b1011),
     dict(bits=0b1101),
     "Fingerprint(bits=11, popcount=3)"),
    (Atom, ("symbol", "aromatic", "charge", "isotope", "hcount", "map_num", "chirality", "bracket"),
     dict(symbol="N", aromatic=True, hcount=1),
     dict(map_num=3),
     "Atom(symbol='N', aromatic=True, charge=0, isotope=None, hcount=1, map_num=None, chirality=None, "
     "bracket=False)"),
    (Bond, ("a", "b", "order", "direction"),
     dict(a=0, b=1, direction="/"),
     dict(order=2),
     "Bond(a=0, b=1, order=1, direction='/')"),
    (Molecule, ("atoms", "bonds", "written_order"),
     dict(atoms=(Atom("C"), Atom("O", charge=-1)), bonds=(Bond(0, 1),)),
     dict(bonds=()),
     "Molecule(atoms=(Atom(symbol='C', aromatic=False, charge=0, isotope=None, hcount=0, map_num=None, "
     "chirality=None, bracket=False), Atom(symbol='O', aromatic=False, charge=-1, isotope=None, hcount=0, "
     "map_num=None, chirality=None, bracket=False)), bonds=(Bond(a=0, b=1, order=1, direction=None),), "
     "written_order=((), ()))"),
]

MUTABLE = [
    (ComparisonResult, (
        "n_input", "n_used", "wins_a", "wins_b", "zeros", "statistic", "p_value", "differences",
    ),
     dict(n_input=3, n_used=2, wins_a=1, wins_b=1, zeros=1, statistic=1.5, p_value=1.0, differences=[0.5, -0.25]),
     dict(zeros=0),
     "ComparisonResult(n_input=3, n_used=2, wins_a=1, wins_b=1, zeros=1, statistic=1.5, p_value=1.0, "
     "differences=[0.5, -0.25])"),
    (DataRecord, ("record_id", "features", "label", "subtask", "timestamp", "split"),
     _RECORD,
     dict(split="train"),
     "DataRecord(record_id='r1', features={'drug': 'CCO'}, label=True, subtask=None, timestamp=None, "
     "split=None)"),
    (LoadedTable, ("records", "dropped"),
     dict(records=[DataRecord(**_RECORD)], dropped=2),
     dict(dropped=0),
     "LoadedTable(records=[DataRecord(record_id='r1', features={'drug': 'CCO'}, label=True, subtask=None, "
     "timestamp=None, split=None)], dropped=2)"),
    (EvalRow, ("record_id", "subtask", "target", "completion", "prediction", "truth", "score", "valid", "failure"),
     _ROW,
     dict(failure="timed out"),
     "EvalRow(record_id='r1', subtask=None, target='(B)', completion='(B)', prediction='(B)', truth='(B)', "
     "score=1.0, valid=True, failure=None)"),
    (EvalResult, ("task_id", "metric", "rows", "value", "subtask_values", "undefined_reason"),
     dict(task_id="bbb", metric="accuracy", rows=[EvalRow(**_ROW)]),
     dict(metric="set_accuracy"),
     "EvalResult(task_id='bbb', metric='accuracy', rows=[EvalRow(record_id='r1', subtask=None, target='(B)', "
     "completion='(B)', prediction='(B)', truth='(B)', score=1.0, valid=True, failure=None)], value=1.0, "
     "subtask_values=None, undefined_reason=None)"),
]

CASES = [pytest.param(*case, id=case[0].__name__) for case in FROZEN + MUTABLE]
FROZEN_CASES = [pytest.param(*case, id=case[0].__name__) for case in FROZEN]
MUTABLE_CASES = [pytest.param(*case, id=case[0].__name__) for case in MUTABLE]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls, names, kwargs, change, text", CASES)
def test_equal_fields_are_equal_and_a_changed_field_is_not(cls, names, kwargs, change, text):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    changed = cls(**{**kwargs, **change})
    assert a != changed and not a == changed
    assert _fields(changed, names) != _fields(a, names)


@pytest.mark.parametrize("cls, names, kwargs, change, text", CASES)
def test_equal_only_to_the_same_class(cls, names, kwargs, change, text):
    obj = cls(**kwargs)
    assert obj != _fields(obj, names)
    assert _fields(obj, names) != obj
    lookalike = type(cls.__name__, (cls,), {})(**kwargs)
    assert _fields(lookalike, names) == _fields(obj, names)
    assert obj != lookalike and lookalike != obj
    assert obj != object() and obj != None  # noqa: E711


@pytest.mark.parametrize("cls, names, kwargs, change, text", CASES)
def test_repr_names_every_field_in_order(cls, names, kwargs, change, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, names, kwargs, change, text", FROZEN_CASES)
def test_frozen_hash_is_the_hash_of_the_fields(cls, names, kwargs, change, text):
    obj = cls(**kwargs)
    assert hash(obj) == hash(_fields(obj, names))
    assert hash(obj) == hash(cls(**kwargs))


@pytest.mark.parametrize("cls, names, kwargs, change, text", FROZEN_CASES)
def test_frozen_fields_cannot_be_set_or_deleted(cls, names, kwargs, change, text):
    obj = cls(**kwargs)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == cls(**kwargs)


@pytest.mark.parametrize("cls, names, kwargs, change, text", MUTABLE_CASES)
def test_mutable_values_are_unhashable_and_assignable(cls, names, kwargs, change, text):
    obj = cls(**kwargs)
    with pytest.raises(TypeError):
        hash(obj)
    [(name, value)] = change.items()
    setattr(obj, name, value)
    assert getattr(obj, name) == value


@pytest.mark.parametrize("cls, names, kwargs, change, text", CASES)
def test_copies_and_pickles_are_equal(cls, names, kwargs, change, text):
    obj = cls(**kwargs)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj and twin is not obj


def test_each_comparison_result_gets_its_own_differences():
    a = ComparisonResult(n_input=0, n_used=0, wins_a=0, wins_b=0, zeros=0, statistic=0.0, p_value=1.0)
    b = ComparisonResult(n_input=0, n_used=0, wins_a=0, wins_b=0, zeros=0, statistic=0.0, p_value=1.0)
    assert a.differences == [] and a.differences is not b.differences


def test_values_made_in_init_are_fields():
    assert _molecule().written_order == ((), ())
    assert _molecule(written_order=((1,), (0,))).written_order == ((1,), (0,))
    assert Fingerprint(0).popcount == 0
    with pytest.raises(TypeError):
        Fingerprint(1, popcount=1)
    with pytest.raises(TypeError):
        EvalResult("bbb", "accuracy", [], value=1.0)


def test_no_module_imports_dataclasses():
    src = Path(txf.__file__).parent
    importers = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(str(path.relative_to(src)))
    assert importers == []
