"""Prompt rendering and budget fitting as txf did them when the budget was
fitted by rendering the prompt again after each dropped shot. Kept
unchanged as the oracle that tests/test_promptgen.py compares the one-pass
``render_prompt(..., budget=)`` against."""

from __future__ import annotations

from typing import Sequence

from txf.corpus import DataRecord, TaskManifest
from txf.promptgen import (
    PromptRecord,
    _fill,
    _role_lines,
    render_target,
)


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
    """
    instruction, _ = _fill(manifest.instruction, record)
    context, _ = _fill(manifest.context, record)
    question, used = _fill(manifest.question, record)

    blocks = [
        f"Instructions: {instruction}",
        f"Context: {context}",
        f"Question: {question}",
    ]
    for shot in shots:
        blocks.extend(_role_lines(shot, manifest, used))
        blocks.append(f"Answer: {render_target(shot, manifest)}")
    blocks.extend(_role_lines(record, manifest, used))
    blocks.append("Answer:")
    prompt = "\n\n".join(blocks)

    over = False
    estimate = -(-len(prompt.encode("utf-8")) // 4)
    if budget is not None:
        over = estimate > budget
    return PromptRecord(
        task_id=manifest.task_id,
        record_id=record.record_id,
        split=record.split or "",
        prompt=prompt,
        target=render_target(record, manifest),
        shot_ids=tuple(s.record_id for s in shots),
        estimated_length=estimate,
        over_budget=over,
        subtask=record.subtask,
    )


def fit_length_budget(
    record: DataRecord,
    manifest: TaskManifest,
    shots: Sequence[DataRecord],
    budget: int,
) -> PromptRecord:
    """Drop shots from the end of the list until the estimate fits the budget.

    A zero-shot prompt that still exceeds the budget is kept and flagged.
    """
    shots = list(shots)
    while True:
        rendered = render_prompt(record, manifest, shots, budget=budget)
        if rendered.estimated_length <= budget or not shots:
            return rendered
        shots.pop()
