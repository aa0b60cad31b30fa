"""Task manifests, table ingestion, feature conversion, and train/valid/test
split assignment.

A manifest is the complete recipe for one dataset: what kind of task it is,
which columns hold which features, the prompt texts, the metric, and how the
data is split. Manifests live in a line-oriented UTF-8 ``key: value`` file
format documented in docs/manifest_format.md.
"""

from __future__ import annotations

import csv
import math
import random
import re
import threading
from pathlib import Path

from .atomic import write_atomically
from .ranks import KIND_METRICS, METRICS, lower_is_better_for, parse_direction
from .value import Frozen, Value, set_fields

# txf.chem and txf.bioseq are imported by the feature conversions below when
# they first run, so a command that converts no SMILES never loads the
# cheminformatics kernel.

__all__ = [
    "RoleSpec",
    "TaskManifest",
    "DataRecord",
    "LoadedTable",
    "CorpusError",
    "read_manifest",
    "write_manifest",
    "load_table",
    "assign_splits",
    "molecule",
    "scaffold_key",
    "fingerprint",
    "sequence",
    "pair_score",
    "fit_label_range",
    "write_split_audit",
]

TASK_KINDS = tuple(KIND_METRICS)
ROLE_KINDS = ("smiles", "amino_acid", "nucleotide", "text")
SPLIT_METHODS = ("random", "scaffold", "cold_start", "combination", "temporal")
# Target train/valid/test shares of the records for every split method.
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)

_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class CorpusError(ValueError):
    pass


class RoleSpec(Frozen):
    __slots__ = ("name", "kind", "column", "label")  # label: the prompt role line prefix

    def __init__(self, name: str, kind: str, column: str, label: str):
        set_fields(self, (name, kind, column, label))


class TaskManifest(Frozen):
    __slots__ = (
        "task_id", "task_kind", "roles", "instruction", "context", "question", "label_column", "metric",
        "split_method", "label_range", "cold_start_role", "combination_roles", "timestamp_column",
        "subtask_column",
    )

    def __init__(
        self, task_id: str, task_kind: str, roles: tuple[RoleSpec, ...], instruction: str, context: str,
        question: str, label_column: str, metric: str, split_method: str,
        label_range: tuple[float, float] | None = None, cold_start_role: str | None = None,
        combination_roles: tuple[str, str] | None = None, timestamp_column: str | None = None,
        subtask_column: str | None = None,
    ):
        """Raise one ``CorpusError``, a ``<task_id>: <problem>`` line per
        broken invariant. A regression manifest may lack its label range:
        ``fit_label_range`` can fill it in after the split."""
        set_fields(self, (
            task_id, task_kind, roles, instruction, context, question, label_column, metric, split_method,
            label_range, cold_start_role, combination_roles, timestamp_column, subtask_column,
        ))
        problems = []
        if self.task_kind not in TASK_KINDS:
            problems.append(f"unknown task_kind {self.task_kind!r}")
        if self.metric not in METRICS:
            problems.append(f"unknown metric {self.metric!r}")
        elif self.task_kind in TASK_KINDS and self.metric not in KIND_METRICS[self.task_kind]:
            problems.append(f"metric {self.metric!r} cannot score a {self.task_kind} task")
        if self.split_method not in SPLIT_METHODS:
            problems.append(f"unknown split_method {self.split_method!r}")
        if not self.roles:
            problems.append("no roles declared")
        names = [r.name for r in self.roles]
        if len(set(names)) != len(names):
            problems.append("duplicate role names")
        for r in self.roles:
            if r.kind not in ROLE_KINDS:
                problems.append(f"role {r.name!r} has unknown kind {r.kind!r}")
            if not r.label:
                problems.append(f"role {r.name!r} has an empty label")
        if self.task_kind == "regression" and self.label_range is not None:
            lo, hi = self.label_range
            if not (math.isfinite(lo) and math.isfinite(hi)):
                problems.append("label range must be finite")
            elif not (lo < hi):
                problems.append("label range must satisfy min < max")
        if self.split_method == "scaffold" and not any(r.kind == "smiles" for r in self.roles):
            problems.append("scaffold split needs a smiles role")
        if self.split_method == "cold_start":
            if not self.cold_start_role:
                problems.append("cold_start split needs cold_start_role")
            elif self.cold_start_role not in names:
                problems.append(f"cold_start_role {self.cold_start_role!r} is not a role")
        if self.split_method == "combination":
            combo = self._combination_pair()
            if len(combo) != 2 or any(c not in names for c in combo):
                problems.append("combination split needs two declared roles")
        if self.split_method == "temporal" and not self.timestamp_column:
            problems.append("temporal split needs timestamp_column")
        allowed = set(names) | {"subtask"}
        for field_name in ("instruction", "context", "question"):
            for ref in _PLACEHOLDER.findall(getattr(self, field_name) or ""):
                if ref not in allowed:
                    problems.append(f"{field_name} references undeclared role {ref!r}")
        if problems:
            raise CorpusError("\n".join(f"{self.task_id}: {p}" for p in problems))

    def _combination_pair(self) -> tuple[str, ...]:
        """The roles a combination split pairs: the declared ones, or else
        the first two roles."""
        return self.combination_roles or tuple(r.name for r in self.roles[:2])

    @property
    def lower_is_better(self) -> bool:
        """The metric's direction; a manifest file may only restate it."""
        return lower_is_better_for(self.metric)

    def similarity_roles(self) -> tuple[str, list[RoleSpec]]:
        """Kind of the first similarity-capable role and all roles of that kind."""
        for r in self.roles:
            if r.kind in ("smiles", "amino_acid", "nucleotide"):
                return r.kind, [x for x in self.roles if x.kind == r.kind]
        return "", []


class DataRecord(Value):
    __slots__ = ("record_id", "features", "label", "subtask", "timestamp", "split")

    def __init__(
        self, record_id: str, features: dict[str, str], label: bool | float | str, subtask: str | None = None,
        timestamp: str | None = None, split: str | None = None,
    ):
        self.record_id, self.features, self.label = record_id, features, label
        self.subtask, self.timestamp, self.split = subtask, timestamp, split


class LoadedTable(Value):
    __slots__ = ("records", "dropped")

    def __init__(self, records: list[DataRecord], dropped: int):
        self.records, self.dropped = records, dropped


# ---------------------------------------------------------------------------
# Feature conversion
# ---------------------------------------------------------------------------

# Converted forms of feature strings, each made at most once per process and
# kept for its life, without a size bound. Each conversion is a pure function
# of its text, and a txf command is one process, so the scaffold split, every
# shot pool's NeighborIndex and the knn stub of every task share them. A
# string that does not convert maps to None, and its scaffold key is "".
_molecules: dict[str, object] = {}
_scaffolds: dict[str, str] = {}
_fingerprints: dict[str, object] = {}
_sequences: dict[tuple[str, str], object] = {}
_pairs: dict[tuple, float] = {}
# The knn stub converts from worker threads, so an entry is made under the
# lock, after a second look. Reentrant: a fingerprint or scaffold key asks
# for the molecule.
_lock = threading.RLock()
_MISSING = object()


def _entry(cache: dict, key, make):
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        with _lock:
            value = cache.get(key, _MISSING)
            if value is _MISSING:
                value = cache[key] = make(key)
    return value


def molecule(text: str):
    """The parsed ``chem.Molecule``, or None if ``text`` does not parse."""
    return _entry(_molecules, text, _parse)


def scaffold_key(text: str) -> str:
    """``chem.scaffold_key`` of the molecule; "" if it does not parse.

    Kept per SMILES; a scaffold that several SMILES spell in one atom order
    is searched once, through ``write_canonical``'s process-wide memo."""
    return _entry(_scaffolds, text, _scaffold_of)


def fingerprint(text: str):
    """``chem.morgan_fingerprint`` of the molecule, or None."""
    return _entry(_fingerprints, text, _fingerprint_of)


def sequence(text: str, kind: str):
    """``bioseq.BioSequence(text, kind)``, or None if it is invalid."""
    return _entry(_sequences, (text, kind), _sequence)


def pair_score(score, a, b) -> float:
    """``score(a, b)`` of two ``BioSequence``s, kept by (score, a's residues,
    b's residues). Equal residues give 100.0 without a call, which is exact
    for ``bioseq.percent_identity`` and ``bioseq.identity_bound``."""
    if a.residues == b.residues:
        return 100.0
    return _entry(_pairs, (score, a.residues, b.residues), lambda _: score(a, b))


def _scaffold_of(text: str) -> str:
    from .chem import murcko_scaffold, write_canonical

    mol = molecule(text)
    scaffold = None if mol is None else murcko_scaffold(mol)
    return "" if scaffold is None else write_canonical(scaffold)


def _fingerprint_of(text: str):
    from .chem import morgan_fingerprint

    mol = molecule(text)
    return None if mol is None else morgan_fingerprint(mol)


def _parse(text: str):
    from .chem import SmilesParseError, parse_smiles

    try:
        return parse_smiles(text)
    except SmilesParseError:
        return None


def _sequence(key: tuple[str, str]):
    from .bioseq import BioSequence

    try:
        return BioSequence(*key)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Manifest file format
# ---------------------------------------------------------------------------


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


_ESCAPED = re.compile(r"\\([n\\])")


def _unescape(value: str) -> str:
    """Inverse of ``_escape``; a backslash before any other character stays."""
    return _ESCAPED.sub(lambda m: "\n" if m[1] == "n" else "\\", value)


# Manifest keys in file order: the key, whether it may be absent, and whether
# its value is the TaskManifest text field of that name as written. "role"
# stands for role.<name>.kind, .column and .label of each declared role.
_KEYS = (
    ("task_id", False, True), ("task_kind", False, True), ("metric", False, True),
    ("lower_is_better", True, False), ("split_method", False, True), ("label_column", False, True),
    ("roles", False, False), ("role", False, False),
    ("label_min", True, False), ("label_max", True, False),
    ("cold_start_role", True, True), ("combination_roles", True, False),
    ("timestamp_column", True, True), ("subtask_column", True, True),
    ("instruction", False, True), ("context", False, True), ("question", False, True),
)
_ROLE_FIELDS = ("kind", "column", "label")  # RoleSpec's fields after its name


def _keys(role_names):
    """``_KEYS`` with "role" spelled out for these roles, in role order."""
    for key, optional, verbatim in _KEYS:
        if key == "role":
            yield from ((f"role.{n}.{f}", False, False) for n in role_names for f in _ROLE_FIELDS)
        else:
            yield key, optional, verbatim


def read_manifest(path) -> TaskManifest:
    data: dict[str, str] = {}
    line_of: dict[str, int] = {}
    try:
        # utf-8-sig: a leading byte-order mark, as spreadsheet exports
        # write, is not part of the first key.
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if ":" not in line:
            raise CorpusError(f"{path}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in data:
            raise CorpusError(f"{path}:{lineno}: repeated key {key!r}")
        data[key] = _unescape(value.strip())
        line_of[key] = lineno

    def need(key: str) -> str:
        if key not in data:
            raise CorpusError(f"{path}: missing required key {key!r}")
        return data[key]

    names = need("roles").split()
    keys = list(_keys(names))
    values = {key: data.get(key) if optional else need(key) for key, optional, _ in keys}

    def number(key: str) -> float:
        text = need(key)
        try:
            return float(text)
        except ValueError:
            raise CorpusError(f"{path}: {key} is not a number: {text!r}") from None

    label_range = None
    if "label_min" in data or "label_max" in data:
        label_range = (number("label_min"), number("label_max"))
    combo = values["combination_roles"] and tuple(values["combination_roles"].split())
    if combo is not None and len(combo) != 2:
        raise CorpusError(f"{path}: combination_roles needs exactly two names")
    if "lower_is_better" in data:
        try:
            lower_is_better_for(values["metric"], parse_direction(data["lower_is_better"]))
        except ValueError as exc:
            raise CorpusError(f"{path}: lower_is_better {exc}") from None
    manifest = TaskManifest(
        roles=tuple(RoleSpec(n, *(values[f"role.{n}.{f}"] for f in _ROLE_FIELDS)) for n in names),
        label_range=label_range,
        combination_roles=combo,
        **{key: values[key] for key, _, verbatim in keys if verbatim},
    )
    unknown = [key for key in data if key not in values]
    if unknown:
        raise CorpusError(f"{path}:{line_of[unknown[0]]}: unknown key {unknown[0]!r}")
    return manifest


def write_manifest(manifest: TaskManifest, path) -> None:
    """Write every value escaped, so ``read_manifest`` reads it back equal."""
    values = {
        "lower_is_better": "true" if manifest.lower_is_better else "false",
        "roles": " ".join(r.name for r in manifest.roles),
        "combination_roles": " ".join(manifest.combination_roles or ()),
        **{f"role.{r.name}.{f}": getattr(r, f) for r in manifest.roles for f in _ROLE_FIELDS},
    }
    if manifest.label_range is not None:
        values["label_min"], values["label_max"] = map(repr, manifest.label_range)
    lines = []
    for key, optional, verbatim in _keys([r.name for r in manifest.roles]):
        value = getattr(manifest, key) if verbatim else values.get(key)
        if value or not optional:
            lines.append(f"{key}: {_escape(value)}\n")
    write_atomically(path, lambda fh: fh.write("".join(lines)))


# ---------------------------------------------------------------------------
# Table ingestion
# ---------------------------------------------------------------------------


def _table_reader(fh, path):
    """Tab-separated for a ``.tsv`` file, comma-separated otherwise."""
    delimiter = "\t" if Path(path).suffix.lower() == ".tsv" else ","
    return csv.reader(fh, delimiter=delimiter)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"label is not finite: {raw!r}")
    return value


def _parse_label(raw: str, kind: str):
    if kind == "binary":
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "1.0"):
            return True
        if lowered in ("0", "false", "no", "0.0"):
            return False
        return _finite(raw) != 0.0
    if kind == "regression":
        return _finite(raw)
    return raw


def load_table(path, manifest: TaskManifest) -> LoadedTable:
    """Read a delimited table into typed records.

    Rows with any empty mapped cell are dropped and counted. A leading
    byte-order mark is ignored. Raises on a file that is not UTF-8, a
    missing column, or when no usable rows remain.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = _table_reader(fh, path)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusError(f"{path}: empty file") from None
            index = {name: i for i, name in enumerate(header)}
            needed = [r.column for r in manifest.roles] + [manifest.label_column]
            if manifest.subtask_column:
                needed.append(manifest.subtask_column)
            if manifest.timestamp_column:
                needed.append(manifest.timestamp_column)
            missing = [c for c in needed if c not in index]
            if missing:
                raise CorpusError(f"{path}: missing columns {missing}")

            records = []
            dropped = 0
            for row_num, row in enumerate(reader):
                cells = {}
                ok = True
                for column in needed:
                    i = index[column]
                    value = row[i].strip() if i < len(row) else ""
                    if not value:
                        ok = False
                        break
                    cells[column] = value
                if not ok:
                    dropped += 1
                    continue
                try:
                    label = _parse_label(cells[manifest.label_column], manifest.task_kind)
                except ValueError:
                    dropped += 1
                    continue
                records.append(
                    DataRecord(
                        record_id=str(row_num),
                        features={r.name: cells[r.column] for r in manifest.roles},
                        label=label,
                        subtask=cells.get(manifest.subtask_column) if manifest.subtask_column else None,
                        timestamp=cells.get(manifest.timestamp_column) if manifest.timestamp_column else None,
                    )
                )
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None
    if not records:
        raise CorpusError(f"{path}: no usable rows (dropped {dropped})")
    return LoadedTable(records=records, dropped=dropped)


# ---------------------------------------------------------------------------
# Split assignment
# ---------------------------------------------------------------------------


def _cut_points(n: int) -> tuple[int, int]:
    train, valid, _ = SPLIT_FRACTIONS
    return round(train * n), round((train + valid) * n)


def _timestamp_sort_key(value: str):
    """Numbers first, in order; then, by their text, the timestamps that are
    not numbers, "nan" among them, since NaN compares false both ways."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if math.isnan(number):
        return (1, 0.0, value)
    return (0, number, "")


def _group_records(records, key_fn) -> dict:
    groups: dict[object, list[int]] = {}
    for i, record in enumerate(records):
        groups.setdefault(key_fn(record), []).append(i)
    return groups


def _with_splits(records: list[DataRecord], splits: list[str]) -> list[DataRecord]:
    return [
        DataRecord(r.record_id, r.features, r.label, r.subtask, r.timestamp, split)
        for r, split in zip(records, splits)
    ]


def assign_splits(
    records: list[DataRecord],
    manifest: TaskManifest,
    seed: int,
) -> list[DataRecord]:
    """Return copies of the records with train/valid/test assigned by the
    manifest's split method, in SPLIT_FRACTIONS.

    The scaffold split reads each SMILES's key from ``scaffold_key``, which
    keys each distinct string once per process.

    scaffold: group by scaffold key, pack groups largest-first into train,
    then valid, then test. The other methods order groups of records and put
    each group in the first split whose target is not yet reached. random:
    one-record groups in a seeded shuffle. temporal: one-record groups in a
    stable sort on the timestamp column. cold_start / combination: group by
    the entity key (or unordered role pair) and shuffle the groups with the
    seed.
    """
    method = manifest.split_method
    n = len(records)
    if n == 0:
        return []
    train_end, valid_end = _cut_points(n)
    assignment = ["test"] * n

    if method == "scaffold":
        role = next(r.name for r in manifest.roles if r.kind == "smiles")
        groups = _group_records(records, lambda record: scaffold_key(record.features[role]))
        ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        counts = {"train": 0, "valid": 0}
        for _, members in ordered:
            if counts["train"] + len(members) <= train_end:
                bucket = "train"
            elif counts["valid"] + len(members) <= valid_end - train_end:
                bucket = "valid"
            else:
                bucket = "test"
            if bucket in counts:
                counts[bucket] += len(members)
            for idx in members:
                assignment[idx] = bucket
        return _with_splits(records, assignment)

    if method == "random":
        order = list(range(n))
        random.Random(seed).shuffle(order)
        ordered = [[idx] for idx in order]
    elif method == "temporal":
        for record in records:
            if record.timestamp is None:
                raise CorpusError("temporal split needs timestamps on every record")
        order = sorted(range(n), key=lambda i: (_timestamp_sort_key(records[i].timestamp), i))
        ordered = [[idx] for idx in order]
    else:
        if method == "cold_start":
            role = manifest.cold_start_role
            key_fn = lambda record: record.features[role]
        else:
            a, b = manifest._combination_pair()
            key_fn = lambda record: tuple(sorted((record.features[a], record.features[b])))
        groups = _group_records(records, key_fn)
        keys = sorted(groups, key=str)
        random.Random(seed).shuffle(keys)
        ordered = [groups[key] for key in keys]

    assigned = 0
    for members in ordered:
        if assigned < train_end:
            bucket = "train"
        elif assigned < valid_end:
            bucket = "valid"
        else:
            bucket = "test"
        for idx in members:
            assignment[idx] = bucket
        assigned += len(members)
    return _with_splits(records, assignment)


def fit_label_range(records: list[DataRecord], manifest: TaskManifest) -> TaskManifest:
    """Freeze the regression label range from the train split only."""
    if manifest.task_kind != "regression":
        return manifest
    train_labels = [r.label for r in records if r.split == "train"]
    if not train_labels:
        raise CorpusError(f"{manifest.task_id}: no train records to fit a label range")
    lo, hi = min(train_labels), max(train_labels)
    if lo == hi:
        raise CorpusError(f"{manifest.task_id}: degenerate label range [{lo}, {hi}]")
    m = manifest
    return TaskManifest(
        m.task_id, m.task_kind, m.roles, m.instruction, m.context, m.question, m.label_column, m.metric,
        m.split_method, (float(lo), float(hi)), m.cold_start_role, m.combination_roles, m.timestamp_column,
        m.subtask_column,
    )


def write_split_audit(records: list[DataRecord], path) -> None:
    """Two-column TSV (record id, split) for audit."""

    def write(fh):
        for record in records:
            fh.write(f"{record.record_id}\t{record.split}\n")

    write_atomically(path, write)
