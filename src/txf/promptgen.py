"""Prompt rendering, label binning, shot selection, and mixture building.

Prompts have four blocks (Instructions, Context, Question, Answer) separated
by blank lines. Few-shot exemplars sit between the question and the query as
role lines followed by a completed answer line. The query itself ends with a
bare "Answer:" that the model must complete.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import random
from typing import Iterable, Iterator, Mapping, Sequence

from .atomic import write_atomically
from .corpus import _PLACEHOLDER, DataRecord, TaskManifest, fingerprint, pair_score, sequence
from .value import Frozen, set_fields

__all__ = [
    "ANSWER_NEGATIVE",
    "ANSWER_POSITIVE",
    "BIN_LEVELS",
    "PromptRecord",
    "ZERO_SHOT_FRACTION",
    "SHOT_RANGE",
    "INPUT_BUDGET",
    "bin_label",
    "unbin_label",
    "render_target",
    "render_prompt",
    "select_shots_random",
    "NeighborIndex",
    "build_mixture",
    "shot_source_splits",
    "write_prompt_jsonl",
]

# Fixed option order for binary answers: (A) negative, (B) positive.
ANSWER_NEGATIVE = "(A)"
ANSWER_POSITIVE = "(B)"

# The finetuning mixture: 70 % of prompts are zero-shot, the rest take a
# uniform 1..10 random shots, trimmed to a 2,048-token input budget.
ZERO_SHOT_FRACTION = 0.7
SHOT_RANGE = (1, 10)
INPUT_BUDGET = 2048


# Regression labels bin onto 0..BIN_LEVELS, the paper's 000-1000 targets.
BIN_LEVELS = 1000


def _label_range(manifest: TaskManifest) -> tuple[float, float]:
    """The (min, max) range a regression manifest bins with; the manifest
    has already checked min < max."""
    if manifest.label_range is None:
        raise ValueError(f"{manifest.task_id}: no label range to bin with")
    return manifest.label_range


def bin_label(y: float, label_range: tuple[float, float]) -> tuple[int, str]:
    """Clamp y into label_range, (min, max), and round to the nearest bin.

    Rendered zero-padded to three digits; the top bin renders as "1000".
    Rounding is half-up so the mapping is monotone and platform-independent.
    """
    if math.isnan(y):
        raise ValueError("cannot bin NaN")
    lo, hi = label_range
    t = (min(max(y, lo), hi) - lo) / (hi - lo)
    b = math.floor(t * BIN_LEVELS + 0.5)
    return b, f"{b:03d}"


def unbin_label(b: int, label_range: tuple[float, float]) -> float:
    """Map a bin index back into label_range, (min, max)."""
    if not (0 <= b <= BIN_LEVELS):
        raise ValueError(f"bin {b} outside 0..{BIN_LEVELS}")
    lo, hi = label_range
    return lo + (b / BIN_LEVELS) * (hi - lo)


class PromptRecord(Frozen):
    __slots__ = (
        "task_id", "record_id", "split", "prompt", "target", "shot_ids", "estimated_length", "over_budget", "subtask",
    )

    def __init__(
        self, task_id: str, record_id: str, split: str, prompt: str, target: str, shot_ids: tuple[str, ...] = (),
        estimated_length: int = 0, over_budget: bool = False, subtask: str | None = None,
    ):
        set_fields(self, (task_id, record_id, split, prompt, target, shot_ids, estimated_length, over_budget, subtask))


def render_target(record: DataRecord, manifest: TaskManifest) -> str:
    if manifest.task_kind == "binary":
        return ANSWER_POSITIVE if record.label else ANSWER_NEGATIVE
    if manifest.task_kind == "regression":
        _, text = bin_label(float(record.label), _label_range(manifest))
        return text
    return str(record.label)


def _fill(template: str, record: DataRecord) -> tuple[str, set[str]]:
    """Substitute {role} and {subtask} placeholders, which a ``TaskManifest``
    only holds for its declared roles; returns used role names."""
    used: set[str] = set()
    if "{" not in template:
        return template, used

    def sub(match):
        name = match.group(1)
        if name == "subtask":
            return record.subtask or ""
        used.add(name)
        return record.features[name]

    return _PLACEHOLDER.sub(sub, template), used


def _utf8_size(text: str) -> int:
    """UTF-8 bytes of ``text``: its length when ASCII, a flag CPython keeps on
    the string, so only non-ASCII text is encoded."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _role_lines(record: DataRecord, manifest: TaskManifest, skip: set[str]) -> list[str]:
    return [
        f"{role.label}: {record.features[role.name]}"
        for role in manifest.roles
        if role.name not in skip
    ]


def render_prompt(
    record: DataRecord,
    manifest: TaskManifest,
    shots: Sequence[DataRecord] = (),
    budget: int | None = None,
) -> PromptRecord:
    """Render one example into the canonical block layout.

    Layout: "Instructions: ...", "Context: ...", "Question: ..." blocks, one
    blank line apart; then for each shot its role lines and a completed
    "Answer: <target>"; then the query's role lines and a trailing "Answer:".

    With a budget, shots are dropped from the end of the list until the
    estimate fits; a zero-shot prompt that still exceeds it is kept and
    flagged ``over_budget``.
    """
    instruction, _ = _fill(manifest.instruction, record)
    context, _ = _fill(manifest.context, record)
    question, used = _fill(manifest.question, record)

    blocks = [
        f"Instructions: {instruction}",
        f"Context: {context}",
        f"Question: {question}",
    ]
    starts = []  # index of each shot's first block, then of the query's
    for shot in shots:
        starts.append(len(blocks))
        blocks.extend(_role_lines(shot, manifest, used))
        blocks.append(f"Answer: {render_target(shot, manifest)}")
    starts.append(len(blocks))
    blocks.extend(_role_lines(record, manifest, used))
    blocks.append("Answer:")
    prompt = "\n\n".join(blocks)

    # The estimate ceil(size / 4) exceeds the budget exactly when size
    # exceeds 4 * budget. Each dropped block takes its bytes and one "\n\n".
    size = _utf8_size(prompt)
    kept = len(shots)
    if budget is not None and size > 4 * budget:
        while kept and size > 4 * budget:
            kept -= 1
            dropped = blocks[starts[kept] : starts[kept + 1]]
            size -= sum(_utf8_size(block) + 2 for block in dropped)
        prompt = "\n\n".join(blocks[: starts[kept]] + blocks[starts[-1] :])
    estimate = -(-size // 4)  # ceil(utf-8 bytes / 4)
    return PromptRecord(
        task_id=manifest.task_id,
        record_id=record.record_id,
        split=record.split or "",
        prompt=prompt,
        target=render_target(record, manifest),
        shot_ids=tuple(s.record_id for s in shots[:kept]),
        estimated_length=estimate,
        over_budget=budget is not None and estimate > budget,
        subtask=record.subtask,
    )


def select_shots_random(
    pool: Sequence[DataRecord], n: int, seed: int, exclude: int | None = None
) -> list[DataRecord]:
    """n distinct uniform draws from the pool, skipping position ``exclude``.

    ``exclude`` is the query's position in ``pool``, or None when the query
    is not in it. The eligible records are the pool without that position.
    The draws equal ``random.Random(seed).sample(eligible, n)``, yet only
    ``len(pool)`` and the picked records are read, so a draw costs O(n), not
    O(len(pool)). When n covers every eligible record, all of them come back
    in ``rng.shuffle`` order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = len(pool)
    if exclude is not None:
        if not 0 <= exclude < size:
            raise ValueError(f"exclude position {exclude} outside a pool of {size}")
        size -= 1
    if size == 0:
        raise ValueError("empty shot pool")
    rng = random.Random(seed)
    if n >= size:
        picked = [pool[i] for i in range(len(pool)) if i != exclude]
        rng.shuffle(picked)
        return picked
    # random.sample picks indices from len(population) and the RNG alone, so
    # sampling the eligible positions, shifted past the query, draws the same
    # records in the same order as sampling a copy of the eligible records.
    skip = size if exclude is None else exclude
    return [pool[i + (i >= skip)] for i in rng.sample(range(size), n)]


class NeighborIndex:
    """Nearest pool records by feature similarity, built once per shot pool.

    Molecules compare by fingerprint Tanimoto on the first smiles role;
    sequence features by percent identity averaged over same-kind roles.
    Features that do not parse score 0.0. ``roles`` names the compared roles;
    ``kind`` is empty, and ``roles`` too, when no role of the manifest
    supports similarity.

    Converted features and sequence-pair scores come from ``txf.corpus``'s
    per-process memos, so all indexes of a command convert each distinct
    feature and score each distinct pair once. Pool positions are grouped
    by distinct converted features, so a query scores each group once. The
    search is exact: it visits groups by descending ceiling on similarity and
    stops once k records are held and the next ceiling is strictly below the
    k-th best similarity (an equal ceiling may still tie and win on a lower
    pool position). A sequence's ceiling is ``bioseq.identity_bound``, which
    skips most alignments; a fingerprint's is its Tanimoto itself: a
    popcount bound costs about as much and skips almost no group.
    """

    def __init__(self, manifest: TaskManifest, pool: Sequence[DataRecord]):
        self.manifest = manifest
        self.pool = pool
        self.kind, roles = manifest.similarity_roles()
        if self.kind == "smiles":
            from .chem import tanimoto

            roles = roles[:1]
            self._score = self._bound = tanimoto
        else:
            from .bioseq import identity_bound, percent_identity

            self._score = functools.partial(pair_score, percent_identity)
            self._bound = functools.partial(pair_score, identity_bound)
        self.roles = tuple(r.name for r in roles)
        groups: dict[tuple, list[int]] = {}
        for i, record in enumerate(pool):
            groups.setdefault(self._record_features(record.features), []).append(i)
        self._groups = list(groups.items())

    def _record_features(self, features: Mapping[str, str]) -> tuple:
        """Converted features, one per compared role; None where invalid."""
        if self.kind == "smiles":
            return tuple(fingerprint(features[name]) for name in self.roles)
        return tuple(sequence(features[name], self.kind) for name in self.roles)

    @staticmethod
    def _mean(pair, query: tuple, candidate: tuple) -> float:
        """Mean of ``pair`` over the roles valid on both sides; 0.0 if none.

        Similarities and bounds both go through here, so they skip the same
        roles and round the same sums: a bound at least each per-role value
        gives a mean at least the similarity.
        """
        total, count = 0.0, 0
        for a, b in zip(query, candidate):
            if a is not None and b is not None:
                total += pair(a, b)
                count += 1
        return total / count if count else 0.0

    def nearest(
        self, features: Mapping[str, str], k: int, exclude: int | None = None
    ) -> list[tuple[int, float]]:
        """(pool position, similarity) of the k pool records most similar to
        a query's features, descending, ties by ascending position.

        Only the compared ``roles`` of ``features`` are read. ``exclude`` is
        the query's position in the pool, or None when the query is not in
        it. Empty when no record is eligible. The result equals a full scan's.
        """
        if not self.kind:
            raise ValueError(f"{self.manifest.task_id}: no similarity-capable role")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = self._record_features(features)
        mean, bound, score = self._mean, self._bound, self._score
        order = sorted(
            ((mean(bound, q, key), g) for g, (key, _) in enumerate(self._groups)), reverse=True
        )
        best: list[tuple[float, int]] = []  # (similarity, -position), worst first
        for ceiling, g in order:
            if len(best) == k and ceiling < best[0][0]:
                break
            key, positions = self._groups[g]
            similarity = mean(score, q, key)
            for i in positions:
                if i == exclude:
                    continue
                if len(best) < k:
                    heapq.heappush(best, (similarity, -i))
                elif (similarity, -i) > best[0]:
                    heapq.heapreplace(best, (similarity, -i))
                else:
                    break  # later positions of the group rank lower still
        return [(-neg_i, similarity) for similarity, neg_i in sorted(best, reverse=True)]


def shot_source_splits(eval_split: str) -> tuple[str, ...]:
    """Which splits may donate shots when evaluating a given split.

    Training prompts draw from train; validation evaluation draws from train
    only; test evaluation draws from train and valid combined.
    """
    if eval_split == "test":
        return ("train", "valid")
    return ("train",)


def build_mixture(
    tasks: dict[str, tuple[TaskManifest, Sequence[DataRecord]]],
    count: int,
    seed: int = 1,
) -> Iterator[PromptRecord]:
    """Sample a finetuning mixture across tasks.

    Tasks are drawn with probability proportional to their train-record
    count, records uniformly within the task. ZERO_SHOT_FRACTION of the
    prompts are zero-shot; the rest take a uniform SHOT_RANGE count of random
    shots from the same task's train set, trimmed to INPUT_BUDGET; the query
    is passed to ``select_shots_random`` as ``exclude``, its position in the
    pool, so each prompt costs O(shots), not O(pool size). Fully
    reproducible from the seed.
    """
    if not tasks:
        raise ValueError("no tasks to mix")
    task_ids = sorted(tasks)
    pools = {}
    for task_id in task_ids:
        manifest, records = tasks[task_id]
        pool = [r for r in records if r.split in (None, "train")]
        if not pool:
            raise ValueError(f"{task_id}: no train records")
        pools[task_id] = (manifest, pool)
    # rng.choices would accumulate the weights again on every draw.
    cum_weights = list(itertools.accumulate(len(pools[t][1]) for t in task_ids))
    rng = random.Random(seed)
    few_shot_fraction = 1.0 - ZERO_SHOT_FRACTION

    for _ in range(count):
        task_id = rng.choices(task_ids, cum_weights=cum_weights)[0]
        manifest, pool = pools[task_id]
        position = rng.randrange(len(pool))
        record = pool[position]
        shots: Sequence[DataRecord] = ()
        if rng.random() < few_shot_fraction and len(pool) > 1:
            want = rng.randint(*SHOT_RANGE)
            shots = select_shots_random(pool, want, seed=rng.randrange(1 << 30), exclude=position)
        yield render_prompt(record, manifest, shots, budget=INPUT_BUDGET)


# The string escaper json.dumps(obj, ensure_ascii=False) calls: it escapes
# '"', backslash and C0 controls and leaves every other character as it is.
_json_string = json.encoder.encode_basestring


def _jsonl_line(r: PromptRecord) -> str:
    """``json.dumps(obj, ensure_ascii=False) + "\\n"`` for the record's object,
    written without building it: keys in this order, ``subtask`` only when
    the record has one."""
    subtask = "" if r.subtask is None else f', "subtask": {_json_string(r.subtask)}'
    return (
        f'{{"task": {_json_string(r.task_id)}, "record_id": {_json_string(r.record_id)}, '
        f'"split": {_json_string(r.split)}, "prompt": {_json_string(r.prompt)}, '
        f'"target": {_json_string(r.target)}, "shots": [{", ".join(map(_json_string, r.shot_ids))}], '
        f'"estimated_length": {r.estimated_length}, '
        f'"over_budget": {"true" if r.over_budget else "false"}{subtask}}}\n'
    )


def write_prompt_jsonl(records: Iterable[PromptRecord], path) -> None:
    """One UTF-8 JSON object per line; the contract with trainers/evaluators."""

    def write(fh):
        for r in records:
            fh.write(_jsonl_line(r))

    write_atomically(path, write)
