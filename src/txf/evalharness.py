"""Model clients, answer parsing, and evaluation metrics.

The model boundary is a single generate(prompt) call. Over HTTP/1.1 it is a JSON
POST {"prompt", "max_tokens": MAX_TOKENS, "temperature": TEMPERATURE}
answered by {"text", "option_scores"?}; other response keys are ignored.
``HttpModelClient`` speaks it from ``txf.transport``, which this module
loads on the first use of that name. The built-in stubs speak the same
interface in process. Metrics are computed over every test record:
unparseable or failed completions contribute fallback predictions and an
invalid rate, so n stays constant across models.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import threading
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Protocol, Sequence

from .atomic import write_atomically
from .corpus import TaskManifest
from .promptgen import (
    ANSWER_NEGATIVE,
    ANSWER_POSITIVE,
    BIN_LEVELS,
    NeighborIndex,
    PromptRecord,
    _label_range,
    render_target,
    unbin_label,
)
from .ranks import _floats, average_ranks, lower_is_better_for
from .value import Frozen, Value, set_fields

if TYPE_CHECKING:  # txf.chem loads only for generation tasks
    from .chem import Reactants

__all__ = [
    "GenerationResponse",
    "TransportError",
    "ModelClient",
    "HttpModelClient",
    "EchoClient",
    "MajorityClient",
    "NearestNeighborClient",
    "parse_binary_answer",
    "parse_regression_answer",
    "auroc",
    "auprc",
    "accuracy",
    "mae",
    "mse",
    "pearson",
    "spearman",
    "average_ranks",
    "EvalRow",
    "EvalResult",
    "score_rows",
    "evaluate_task",
    "write_result_json",
    "write_rows_csv",
    "read_result_json",
]


# Every request asks for up to MAX_TOKENS tokens, greedily decoded.
MAX_TOKENS = 512
TEMPERATURE = 0.0


class GenerationResponse(Frozen):
    __slots__ = ("text", "option_scores", "latency")

    def __init__(self, text: str, option_scores: dict[str, float] | None = None, latency: float = 0.0):
        set_fields(self, (text, option_scores, latency))


class TransportError(RuntimeError):
    """The endpoint could not be reached after retries."""


class ModelClient(Protocol):
    def generate(self, prompt: str) -> GenerationResponse: ...


def __getattr__(name: str):
    # The HTTP client lives in txf.transport, which only HTTP evaluation
    # loads; it is still found here, where the model clients are.
    if name == "HttpModelClient":
        from .transport import HttpModelClient

        return HttpModelClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class EchoClient:
    """Returns the known target for each prompt; a closed-loop sanity model."""

    def __init__(self, prompts: Sequence[PromptRecord]):
        self._answers = {p.prompt: p.target for p in prompts}

    def generate(self, prompt: str) -> GenerationResponse:
        return GenerationResponse(text=self._answers.get(prompt, ""))


class MajorityClient:
    """Always answers the positive class."""

    def generate(self, prompt: str) -> GenerationResponse:
        return GenerationResponse(text=ANSWER_POSITIVE)


class NearestNeighborClient:
    """Answers with the rendered target of the most similar record of the
    index's pool.

    The query's compared features are recovered from the prompt text itself
    (the last line of each compared role), so the stub sees exactly what a
    model sees. A prompt missing one of those lines gets the empty answer.
    """

    def __init__(self, index: NeighborIndex):
        self.manifest = index.manifest
        self._index = index
        labels = {role.name: role.label for role in index.manifest.roles}
        self._patterns = [
            (name, re.compile(rf"^{re.escape(labels[name])}: (.*)$", flags=re.MULTILINE))
            for name in index.roles
        ]

    def generate(self, prompt: str) -> GenerationResponse:
        pool = self._index.pool
        if not self._index.kind or not pool:
            return GenerationResponse(text="")
        features = {}
        for name, pattern in self._patterns:
            matches = pattern.findall(prompt)
            if not matches:
                return GenerationResponse(text="")
            features[name] = matches[-1]
        [(best_i, _)] = self._index.nearest(features, 1)
        return GenerationResponse(text=render_target(pool[best_i], self.manifest))


# ---------------------------------------------------------------------------
# Answer parsing
# ---------------------------------------------------------------------------


def parse_binary_answer(
    completion: str, option_scores: dict[str, float] | None = None
) -> tuple[str | None, float, bool]:
    """First "(A)"/"(B)" token decides the class.

    Returns (class, ranking_score, valid). The ranking score is the model's
    score for "(B)" when supplied, otherwise 1.0/0.0 from the hard class and
    0.5 for unparseable output.
    """
    pos_a = completion.find(ANSWER_NEGATIVE)
    pos_b = completion.find(ANSWER_POSITIVE)
    if pos_a == -1 and pos_b == -1:
        cls = None
    elif pos_a == -1 or (pos_b != -1 and pos_b < pos_a):
        cls = ANSWER_POSITIVE
    else:
        cls = ANSWER_NEGATIVE
    if option_scores and ANSWER_POSITIVE in option_scores:
        score = float(option_scores[ANSWER_POSITIVE])
    elif cls == ANSWER_POSITIVE:
        score = 1.0
    elif cls == ANSWER_NEGATIVE:
        score = 0.0
    else:
        score = 0.5
    return cls, score, cls is not None


_INT = re.compile(r"\d+")


def parse_regression_answer(completion: str, label_range: tuple[float, float]) -> tuple[float, bool]:
    """First integer token, clamped to the bin range and unbinned into
    label_range, (min, max).

    Unparseable output falls back to the midpoint bin so n stays constant;
    callers report the invalid rate alongside the metric.
    """
    match = _INT.search(completion)
    if match is None:
        return unbin_label(BIN_LEVELS // 2, label_range), False
    # int() refuses more than 4,300 digits, so a run with more significant
    # digits than the top bin is clamped without converting it. \d also
    # matches non-ASCII decimal digits, whose zeros lstrip("0") would miss.
    digits = match.group()
    start = 0
    while start < len(digits) - 1 and int(digits[start]) == 0:
        start += 1
    digits = digits[start:]
    if len(digits) > len(str(BIN_LEVELS)):
        b = BIN_LEVELS
    else:
        b = min(int(digits), BIN_LEVELS)
    return unbin_label(b, label_range), True


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _pairwise(xs: list[float]) -> float:
    """numpy's float64 pairwise summation, with its blocking: sums of fewer
    than 8 items run in order, up to 128 items in 8 interleaved accumulators,
    and longer runs split in two at a multiple of 8."""
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, xs[k:m:8]) for k in range(8)]
        return reduce(add, xs[m:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2
    half -= half % 8
    return _pairwise(xs[:half]) + _pairwise(xs[half:])


def _sum(xs: list[float]) -> float:
    """numpy's sum of a float64 array, bit for bit: numpy adds the pairwise
    sum to the reduction's initial 0.0. So the metrics give the same bytes as
    the numpy versions they replace (tests/metric_reference.py)."""
    return 0.0 + _pairwise(xs)


def _mean(xs: list[float]) -> float:
    return _sum(xs) / len(xs)


def auroc(scores, labels) -> float | None:
    """Rank (Mann-Whitney) formulation: (wins + ties/2) / (P*N)."""
    if len(scores) != len(labels):
        raise ValueError("length mismatch")
    labels = [bool(v) for v in labels]
    pos = sum(labels)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        return None
    ranks = average_ranks(scores)
    rank_sum = _sum([r for r, positive in zip(ranks, labels) if positive])
    return (rank_sum - pos * (pos + 1) / 2) / (pos * neg)


def auprc(scores, labels) -> float | None:
    """Average precision; score ties keep stable record order."""
    if len(scores) != len(labels):
        raise ValueError("length mismatch")
    scores = _floats(scores)
    labels = [bool(v) for v in labels]
    pos = sum(labels)
    if pos == 0:
        return None
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0.0
    total = 0.0
    for rank, i in enumerate(order, 1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return total / pos


def accuracy(predictions, targets) -> float:
    if len(predictions) != len(targets):
        raise ValueError("length mismatch")
    if not predictions:
        raise ValueError("empty input")
    return sum(p == t for p, t in zip(predictions, targets)) / len(predictions)


def mae(predictions, targets) -> float:
    p, t = _floats(predictions), _floats(targets)
    if len(p) != len(t) or not p:
        raise ValueError("bad input shapes")
    return _mean([abs(a - b) for a, b in zip(p, t)])


def mse(predictions, targets) -> float:
    p, t = _floats(predictions), _floats(targets)
    if len(p) != len(t) or not p:
        raise ValueError("bad input shapes")
    # x * x, as numpy squares: x ** 2 raises OverflowError where numpy gives inf.
    return _mean([(a - b) * (a - b) for a, b in zip(p, t)])


def pearson(predictions, targets) -> float | None:
    p, t = _floats(predictions), _floats(targets)
    if len(p) != len(t) or len(p) < 2:
        raise ValueError("need at least two pairs")
    mp, mt = _mean(p), _mean(t)
    sp = [a - mp for a in p]
    st = [b - mt for b in t]
    denom = math.sqrt(_sum([a * a for a in sp]) * _sum([b * b for b in st]))
    if denom == 0.0:
        return None
    return _sum([a * b for a, b in zip(sp, st)]) / denom


def spearman(predictions, targets) -> float | None:
    """Pearson correlation of average ranks."""
    p, t = _floats(predictions), _floats(targets)
    if len(p) != len(t) or len(p) < 2:
        raise ValueError("need at least two pairs")
    return pearson(average_ranks(p), average_ranks(t))


# ---------------------------------------------------------------------------
# Task evaluation
# ---------------------------------------------------------------------------


class EvalRow(Value):
    __slots__ = ("record_id", "subtask", "target", "completion", "prediction", "truth", "score", "valid", "failure")

    def __init__(
        self, record_id: str, subtask: str | None, target: str, completion: str, prediction: object,
        truth: object, score: float, valid: bool, failure: str | None = None,  # the transport error's text
    ):
        self.record_id, self.subtask, self.target, self.completion = record_id, subtask, target, completion
        self.prediction, self.truth, self.score, self.valid, self.failure = prediction, truth, score, valid, failure


class EvalResult(Value):
    """A task's metric over its rows: value, subtask_values and undefined_reason
    are scored when the result is made; n, invalid_rate and failures are read
    from the rows on each access."""

    __slots__ = ("task_id", "metric", "rows", "value", "subtask_values", "undefined_reason")

    def __init__(self, task_id: str, metric: str, rows: list[EvalRow]):
        self.task_id, self.metric, self.rows = task_id, metric, rows
        self.value, self.subtask_values, self.undefined_reason = score_rows(metric, rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def invalid_rate(self) -> float:
        return sum(not r.valid for r in self.rows) / len(self.rows) if self.rows else 0.0

    @property
    def failures(self) -> list[str]:
        return [f"{r.record_id}: {r.failure}" for r in self.rows if r.failure is not None]

    @property
    def lower_is_better(self) -> bool:
        return lower_is_better_for(self.metric)


def _metric_over_rows(metric: str, rows: list[EvalRow]) -> float | None:
    if metric == "auroc":
        return auroc([r.score for r in rows], [bool(r.truth) for r in rows])
    if metric == "auprc":
        return auprc([r.score for r in rows], [bool(r.truth) for r in rows])
    if metric == "accuracy":
        return accuracy([r.prediction for r in rows], [r.target for r in rows])
    if metric == "set_accuracy":
        return sum(r.score for r in rows) / len(rows)
    if metric in ("pearson", "spearman") and len(rows) < 2:
        # A correlation needs two pairs, so a one-row subtask is undefined.
        return None
    predictions = [float(r.prediction) for r in rows]
    truths = [float(r.truth) for r in rows]
    if metric == "mae":
        return mae(predictions, truths)
    if metric == "mse":
        return mse(predictions, truths)
    if metric == "pearson":
        return pearson(predictions, truths)
    if metric == "spearman":
        return spearman(predictions, truths)
    raise ValueError(f"unknown metric {metric!r}")


def score_rows(metric: str, rows: list[EvalRow]) -> tuple[float | None, dict | None, str | None]:
    """Metric value over rows, per-subtask values when subtasks exist."""
    if not rows:
        return None, None, "no rows"
    subtasks = {r.subtask for r in rows}
    if subtasks != {None}:
        per: dict[str, float | None] = {}
        for name in sorted(s for s in subtasks if s is not None):
            per[name] = _metric_over_rows(metric, [r for r in rows if r.subtask == name])
        defined = [v for v in per.values() if v is not None]
        if not defined:
            return None, per, "metric undefined for every subtask"
        return _mean(defined), per, None
    value = _metric_over_rows(metric, rows)
    if value is None:
        return None, None, "metric undefined (degenerate labels or scores)"
    return value, None, None


def _row_for_prompt(
    prompt: PromptRecord,
    manifest: TaskManifest,
    response: GenerationResponse | None,
    failure: str | None,
    reactants: Reactants | None,
) -> EvalRow:
    """A transport failure has no response and scores as the empty
    completion: invalid, with each task kind's fallback prediction.
    A generation row scores against ``reactants``, the target's parsed
    ``chem.Reactants``; other kinds pass None."""
    completion = response.text if response else ""
    scores = response.option_scores if response else None
    if manifest.task_kind == "binary":
        truth = prompt.target == ANSWER_POSITIVE
        prediction, score, valid = parse_binary_answer(completion, scores)
    elif manifest.task_kind == "regression":
        label_range = _label_range(manifest)
        truth = unbin_label(min(int(prompt.target), BIN_LEVELS), label_range)
        prediction, valid = parse_regression_answer(completion, label_range)
        score = 0.0
    else:
        from .chem import score_reactant_prediction

        truth = prompt.target
        score_value, valid = score_reactant_prediction(completion, reactants)
        prediction = completion
        score = float(score_value)
    return EvalRow(
        record_id=prompt.record_id,
        subtask=prompt.subtask,
        target=prompt.target,
        completion=completion,
        prediction=prediction,
        truth=truth,
        score=score,
        valid=valid,
        failure=failure,
    )


def evaluate_task(
    manifest: TaskManifest,
    prompts: Sequence[PromptRecord],
    client: ModelClient,
    concurrency: int = 4,
) -> EvalResult:
    """Drive the model over every prompt and compute the task metric.

    Up to ``concurrency`` requests run at once, one of them on the calling
    thread, but results are reduced in input order, so the output is
    identical for any concurrency setting; ``concurrency=1`` starts no thread.
    Records that fail transport after retries are kept as invalid rows.
    A generation truth that does not parse fails the task before any call.
    Each distinct generation truth is parsed once, and the rows that share
    it score against that one parse. Scoring runs in this thread after the
    model calls, so the truths' lazily written canonical sets need no lock.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    truths = {}  # generation target -> its chem.Reactants
    if manifest.task_kind == "generation":
        from .chem import Reactants

        for prompt in prompts:
            if prompt.target in truths:
                continue
            try:
                truths[prompt.target] = Reactants.parse(prompt.target)
            except ValueError:
                raise ValueError(
                    f"{manifest.task_id}: record {prompt.record_id}: "
                    f"ground-truth SMILES does not parse: {prompt.target!r}"
                ) from None

    # This thread and up to concurrency - 1 workers take prompt indexes in
    # input order and store each outcome at its index. The first other
    # failure stops the dispatch; the calls in flight finish, and the failure
    # first in input order is raised once every worker has ended.
    outcomes: list = [None] * len(prompts)
    failed: list[tuple[int, BaseException]] = []
    indexes = iter(range(len(prompts)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failed else next(indexes, None)
            if i is None:
                return
            try:
                outcomes[i] = client.generate(prompts[i].prompt), None
            except TransportError as exc:
                outcomes[i] = None, str(exc)
            except BaseException as exc:
                with lock:
                    failed.append((i, exc))
                return

    workers = [threading.Thread(target=work) for _ in range(min(concurrency, len(prompts)) - 1)]
    try:
        for worker in workers:
            worker.start()
        work()
    except BaseException as exc:  # a KeyboardInterrupt, or a thread that would not start
        with lock:
            failed.append((-1, exc))
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]

    rows = [
        _row_for_prompt(prompt, manifest, response, failure, truths.get(prompt.target))
        for prompt, (response, failure) in zip(prompts, outcomes)
    ]
    return EvalResult(manifest.task_id, manifest.metric, rows)


def write_result_json(result: EvalResult, path) -> None:
    payload = {
        "task": result.task_id,
        "metric": result.metric,
        "lower_is_better": result.lower_is_better,
        "value": result.value,
        "n": result.n,
        "invalid_rate": result.invalid_rate,
        "undefined_reason": result.undefined_reason,
        "failures": result.failures,
    }
    if result.subtask_values is not None:
        payload["subtask_values"] = result.subtask_values

    def write(fh):
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")

    write_atomically(path, write)


def read_result_json(path) -> dict:
    """The payload of a result file. Raises ValueError naming the file when it
    is not JSON, or not an object with string task and metric and a finite
    numeric or null value (JSON ``NaN`` and ``true`` are neither), or when its
    lower_is_better is not a JSON boolean or contradicts a known metric. A
    file without lower_is_better takes its metric's direction."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # also UnicodeDecodeError
            raise ValueError(f"{path}: not a result file: {exc}") from None
    if not (isinstance(payload, dict) and {"task", "metric", "value"} <= payload.keys()):
        raise ValueError(f"{path}: not a result file: needs task, metric and value")
    if not (isinstance(payload["task"], str) and isinstance(payload["metric"], str)):
        raise ValueError(f"{path}: not a result file: task and metric must be strings")
    value = payload["value"]
    # abs() compares an int exactly, so an int too large for a float fails too.
    if value is not None and not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{path}: not a result file: value {value!r} is not a finite number or null")
    stated = payload.get("lower_is_better")
    if "lower_is_better" in payload and not isinstance(stated, bool):
        raise ValueError(f"{path}: not a result file: lower_is_better {stated!r} is not true or false")
    try:
        payload["lower_is_better"] = lower_is_better_for(payload["metric"], stated)
    except ValueError as exc:
        raise ValueError(f"{path}: lower_is_better {exc}") from None
    return payload


def write_rows_csv(result: EvalResult, path) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(
            ["record_id", "subtask", "target", "completion", "prediction", "truth", "score", "valid", "failed"]
        )
        for r in result.rows:
            writer.writerow(
                [
                    r.record_id,
                    r.subtask or "",
                    r.target,
                    r.completion,
                    r.prediction,
                    r.truth,
                    r.score,
                    int(r.valid),
                    int(r.failure is not None),
                ]
            )

    write_atomically(path, write, newline="")
