"""Deterministic synthetic workloads for the benchmark.

Every input is derived from ``molecules.txt`` (a copy of the test suite's
molecule corpus) and a seed; nothing is downloaded. The same seed gives
byte-identical manifests and tables. Sizes are fixed per workload and the
seed only changes which substituents, labels, residues and reactions are
drawn, so the amount of work is nearly the same for every seed.

This module imports nothing from ``txf``: input generation must not speed
up or slow down with the program under test.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Sizes. The knn paths are quadratic in the pool on the seed code, so the
# knn workloads stay small enough for several build/evaluate cycles per run.
MOL_GROUPS = 15  # base molecules in mol-knn, one scaffold family each
MOL_PER_GROUP = 3
DTI_TARGETS = 9  # distinct protein sequences in dti-coldstart
DTI_PER_TARGET = 5
DTI_FAMILIES = 4  # random parent sequences; the other targets are mutants
# One length for every target: which targets the cold-start split puts in
# the test set depends on the seed, and with equal lengths the alignment
# work of build and evaluate does not.
DTI_LENGTH = 68
HTTP_BINARY_ROWS = 1200
HTTP_REACTION_ROWS = 600
HTTP_MIXTURE = 4000

SUBSTITUENTS = (
    "", "", "", "C", "CC", "F", "Cl", "Br", "O", "N", "CO", "OC",
    "C(C)", "FC(F)(F)", "N#C", "OC(=O)", "CCO", "CCN",
)
ONE_ATOM = ("C", "N", "O", "F", "Cl", "Br")
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

_TOKEN = re.compile(r"\[[^\]]+\]|Br|Cl|[BCNOPSFI]|[bcnops]|%\d\d|\d|[()=#\-:/\\.]")
_BOND = {"-": 1, "=": 2, "#": 3, ":": 1.5, "/": 1, "\\": 1}
_VALENCES = {
    "B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5), "S": (2, 4, 6),
    "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,),
}


def load_molecules() -> list[str]:
    lines = (HERE / "molecules.txt").read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


# ---------------------------------------------------------------------------
# A small SMILES reader, enough to add atom maps and join molecules.
# ---------------------------------------------------------------------------


@dataclass
class _Atom:
    token: str
    bare: bool
    symbol: str
    aromatic: bool
    orders: list = field(default_factory=list)

    def hydrogens(self) -> int:
        """Implicit H of a bare atom, by the usual organic-subset rule."""
        if not self.bare or self.symbol not in _VALENCES:
            return 0
        need = math.ceil(sum(self.orders))
        if self.aromatic:
            return max(0, 4 - need) if self.symbol == "C" else 0
        for valence in _VALENCES[self.symbol]:
            if valence >= need:
                return valence - need
        return 0


def _read(smiles: str) -> tuple[list[str], list[_Atom], list[int]]:
    """Tokens, atoms, and for each token the atom index (or -1)."""
    tokens = _TOKEN.findall(smiles)
    if "".join(tokens) != smiles:
        raise ValueError(f"unsupported SMILES {smiles!r}")
    atoms: list[_Atom] = []
    owner = []
    prev = None
    stack = []
    pending = None
    rings: dict[str, tuple[int, float | None]] = {}

    def bond(a: int, b: int, order):
        if order is None:
            order = 1.5 if atoms[a].aromatic and atoms[b].aromatic else 1
        atoms[a].orders.append(order)
        atoms[b].orders.append(order)

    for tok in tokens:
        owner.append(-1)
        if tok.startswith("[") or tok[0].isalpha():
            if tok.startswith("["):
                body = re.match(r"\[\d*([A-Za-z][a-z]?)", tok).group(1)
                aromatic = body.islower()
                atom = _Atom(tok, False, body.capitalize(), aromatic)
            else:
                atom = _Atom(tok, True, tok.capitalize(), tok.islower())
            atoms.append(atom)
            idx = len(atoms) - 1
            owner[-1] = idx
            if prev is not None:
                bond(prev, idx, pending)
            pending = None
            prev = idx
        elif tok == "(":
            stack.append(prev)
        elif tok == ")":
            prev = stack.pop()
        elif tok == ".":
            prev = None
        elif tok in _BOND:
            pending = _BOND[tok]
        else:  # ring closure digit
            if tok in rings:
                other, order = rings.pop(tok)
                bond(other, prev, pending if pending is not None else order)
            else:
                rings[tok] = (prev, pending)
            pending = None
    return tokens, atoms, owner


def map_atoms(smiles: str, start: int) -> tuple[str, int]:
    """Spell every atom in brackets with an atom map start, start+1, ...

    Returns the mapped string and the next free map number.
    """
    tokens, atoms, owner = _read(smiles)
    out = []
    n = start
    for tok, idx in zip(tokens, owner):
        if idx < 0:
            out.append(tok)
            continue
        atom = atoms[idx]
        if atom.bare:
            h = atom.hydrogens()
            hs = "" if h == 0 else "H" if h == 1 else f"H{h}"
            out.append(f"[{tok}{hs}:{n}]")
        else:
            out.append(re.sub(r"(?::\d+)?\]$", f":{n}]", tok))
        n += 1
    return "".join(out), n


def head_ok(smiles: str) -> bool:
    """The first atom is bare and has a hydrogen to replace."""
    tokens, atoms, owner = _read(smiles)
    return "." not in tokens and atoms[0].bare and atoms[0].hydrogens() >= 1 and owner[0] == 0


def tail_ok(smiles: str) -> bool:
    """The last token is a bare aliphatic atom with a hydrogen to replace."""
    tokens, atoms, owner = _read(smiles)
    last = atoms[owner[-1]] if owner[-1] >= 0 else None
    return (
        "." not in tokens
        and last is not None
        and last.bare
        and not last.aromatic
        and last.hydrogens() >= 1
    )


def decorate(smiles: str, rng: random.Random) -> str:
    """Prefix an acyclic substituent; the ring scaffold is unchanged."""
    if not head_ok(smiles):
        return smiles
    return rng.choice(SUBSTITUENTS) + smiles


# ---------------------------------------------------------------------------
# Manifests and tables
# ---------------------------------------------------------------------------


@dataclass
class Task:
    task_id: str
    rows: int
    split_method: str
    features: tuple[str, ...]  # feature columns, in role order
    similarity: str = "smiles"  # kind of the first role, which knn compares


@dataclass
class Workload:
    name: str
    root: Path
    tasks: list[Task]
    build_shots: str
    eval_shots: str
    eval_stub: str | None = None
    mixture: int = 0
    answers: Path | None = None

    @property
    def manifests(self) -> Path:
        return self.root / "manifests"

    @property
    def data(self) -> Path:
        return self.root / "data"


def _write_manifest(root: Path, fields: dict[str, str]) -> None:
    lines = [f"{key}: {value}" for key, value in fields.items()]
    path = root / "manifests" / f"{fields['task_id']}.manifest"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_table(root: Path, task_id: str, header: list[str], rows: list[list[str]]) -> None:
    lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    (root / "data" / f"{task_id}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


_BBB_CONTEXT = (
    "As a membrane separating circulating blood and brain extracellular fluid, the "
    "blood-brain barrier (BBB) is the protection layer that blocks most foreign drugs. "
    "Thus the ability of a drug to penetrate the barrier to deliver to the site of "
    "action forms a crucial challenge in development of drugs for central nervous system."
)


def _binary_manifest(task_id: str, split_method: str) -> dict[str, str]:
    return {
        "task_id": task_id,
        "task_kind": "binary",
        "metric": "auroc",
        "split_method": split_method,
        "label_column": "Y",
        "roles": "drug",
        "role.drug.kind": "smiles",
        "role.drug.column": "Drug",
        "role.drug.label": "Drug SMILES",
        "instruction": "Answer the following question about drug properties.",
        "context": _BBB_CONTEXT,
        "question": "Given a drug SMILES string, predict whether it\\n\\n"
        "(A) does not cross the BBB (B) crosses the BBB",
    }


def _labelled_groups(bases: list[str], per_group: int, rng: random.Random) -> list[list[str]]:
    """per_group copies of each base: the bare base, then bases with a
    seeded one-atom substituent (equal draws give duplicate molecules).
    Every group holds both labels.

    The scaffold split puts whole groups in one split, so every group has
    the same number of atoms for every seed; otherwise the seed would
    change how much work the small test split costs.
    """
    rows = []
    for base in bases:
        for j in range(per_group):
            prefix = rng.choice(ONE_ATOM) if j else ""
            label = j if j < 2 else rng.randrange(2)
            rows.append([prefix + base, str(label)])
    return rows


def make_mol_knn(root: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    bases = [s for s in load_molecules() if head_ok(s)][:MOL_GROUPS]
    rows = _labelled_groups(bases, MOL_PER_GROUP, rng)
    rng.shuffle(rows)
    _write_manifest(root, _binary_manifest("mol_bbb", "scaffold"))
    _write_table(root, "mol_bbb", ["Drug", "Y"], rows)
    return Workload(
        "mol-knn", root, [Task("mol_bbb", len(rows), "scaffold", ("Drug",))],
        build_shots="knn10", eval_shots="0", eval_stub="knn",
    )


def _protein_targets(rng: random.Random) -> list[str]:
    targets: list[str] = []
    for i in range(DTI_TARGETS):
        if i < DTI_FAMILIES:
            seq = "".join(rng.choice(AMINO_ACIDS) for _ in range(DTI_LENGTH))
        else:
            seq = list(targets[i % DTI_FAMILIES])
            while "".join(seq) in targets:
                for pos in rng.sample(range(DTI_LENGTH), DTI_LENGTH // 5):
                    seq[pos] = rng.choice(AMINO_ACIDS)
            seq = "".join(seq)
        targets.append(seq)
    return targets


def make_dti_coldstart(root: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    drugs = [s for s in load_molecules() if "." not in s]
    rows = []
    for target in _protein_targets(rng):
        for _ in range(DTI_PER_TARGET):
            drug = decorate(rng.choice(drugs), rng)
            rows.append([target, drug, f"{rng.uniform(4.0, 10.0):.3f}"])
    rng.shuffle(rows)
    _write_manifest(root, {
        "task_id": "dti_kd",
        "task_kind": "regression",
        "metric": "mae",
        "split_method": "cold_start",
        "cold_start_role": "target",
        "label_column": "Y",
        "label_min": "4.0",
        "label_max": "10.0",
        "roles": "target drug",
        "role.target.kind": "amino_acid",
        "role.target.column": "Target",
        "role.target.label": "Target amino acid sequence",
        "role.drug.kind": "smiles",
        "role.drug.column": "Drug",
        "role.drug.label": "Drug SMILES",
        "instruction": "Answer the following question about drug-target interactions.",
        "context": "Drug-target binding is the physical interaction between a drug and "
        "its protein target. The dissociation constant Kd measures how tightly "
        "the drug binds; a higher pKd means a stronger binding affinity.",
        "question": "Given the target amino acid sequence and compound SMILES string, "
        "predict their normalized binding affinity Kd from 000 to 1000, where 000 "
        "is minimum Kd and 1000 is maximum Kd.",
    })
    _write_table(root, "dti_kd", ["Target", "Drug", "Y"], rows)
    return Workload(
        "dti-coldstart", root,
        [Task("dti_kd", len(rows), "cold_start", ("Target", "Drug"), "amino_acid")],
        build_shots="knn5", eval_shots="0", eval_stub="knn",
    )


def _reactions(rng: random.Random, count: int) -> list[tuple[str, str, list[str]]]:
    """(mapped product, reactants, mapped reactants) built by joining
    two or three corpus molecules tail to head."""
    singles = [s for s in load_molecules() if "." not in s]
    heads = [s for s in singles if head_ok(s)]
    middles = [s for s in heads if tail_ok(s)]
    tails = [s for s in singles if tail_ok(s)]
    seen = set()
    out = []
    while len(out) < count:
        parts = [rng.choice(tails)]
        if rng.random() < 0.5:
            parts.append(rng.choice(middles))
        parts.append(rng.choice(heads))
        if len(set(parts)) != len(parts):
            continue
        product = "".join(parts)
        if product in seen:
            continue
        seen.add(product)
        mapped_product, _ = map_atoms(product, 1)
        mapped_parts = []
        n = 1
        for part in parts:
            mapped, n = map_atoms(part, n)
            mapped_parts.append(mapped)
        out.append((mapped_product, ".".join(parts), mapped_parts))
    return out


def make_corpus_http(root: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    molecules = load_molecules()
    binary_rows = [
        [decorate(rng.choice(molecules), rng), str(int(rng.random() < 0.4))]
        for _ in range(HTTP_BINARY_ROWS)
    ]
    _write_manifest(root, _binary_manifest("http_bbb", "random"))
    _write_table(root, "http_bbb", ["Drug", "Y"], binary_rows)

    reactions = _reactions(rng, HTTP_REACTION_ROWS)
    _write_manifest(root, {
        "task_id": "http_uspto",
        "task_kind": "generation",
        "metric": "set_accuracy",
        "split_method": "random",
        "label_column": "Reactants",
        "roles": "product",
        "role.product.kind": "smiles",
        "role.product.column": "Product",
        "role.product.label": "Product SMILES",
        "instruction": "Answer the following question about reactions.",
        "context": "Retrosynthesis is the process of finding a set of reactants that "
        "can synthesize a given product. The reactants are written as SMILES "
        "strings separated by periods.",
        "question": "Given a product SMILES string, predict the reactant SMILES string.",
    })
    _write_table(
        root, "http_uspto", ["Product", "Reactants"],
        [[product, reactants] for product, reactants, _ in reactions],
    )
    answers = root / "answers.json"
    answers.write_text(
        json.dumps({product: mapped for product, _, mapped in reactions}, sort_keys=True),
        encoding="utf-8",
    )
    return Workload(
        "corpus-http", root,
        [Task("http_bbb", HTTP_BINARY_ROWS, "random", ("Drug",)),
         Task("http_uspto", HTTP_REACTION_ROWS, "random", ("Product",))],
        build_shots="random5", eval_shots="random5", mixture=HTTP_MIXTURE,
        answers=answers,
    )


GENERATORS = {
    "mol-knn": make_mol_knn,
    "dti-coldstart": make_dti_coldstart,
    "corpus-http": make_corpus_http,
}


def generate(name: str, seed: int, root: Path) -> Workload:
    """Write the workload's manifests and tables under root."""
    (root / "manifests").mkdir(parents=True)
    (root / "data").mkdir()
    return GENERATORS[name](root, seed)
