"""Command-line entry point binding the pipeline end to end.

Exit codes: 0 success, 1 validation failure, 2 transport failure,
3 degenerate metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

from . import analysis, corpus, evalharness, promptgen

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TRANSPORT = 2
EXIT_DEGENERATE = 3

MANIFEST_SUFFIX = ".manifest"
_SHOT_POLICY = re.compile(r"^(0|random(\d+)|knn(\d+))$")


@dataclass
class RunConfig:
    manifests: Path
    data: Path
    out: Path
    seed: int = 1
    shots: str = "0"
    model_url: str | None = None
    stub: str | None = None
    concurrency: int = 4
    tasks: tuple[str, ...] = ()
    mixture: int = 0
    fit_ranges: bool = False


def _fail(message: str, code: int = EXIT_VALIDATION) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_shot_policy(text: str) -> tuple[str, int]:
    match = _SHOT_POLICY.match(text)
    if not match:
        raise ValueError(f"bad shot policy {text!r}; expected 0, randomK, or knnK")
    if match.group(2):
        return "random", int(match.group(2))
    if match.group(3):
        return "knn", int(match.group(3))
    return "zero", 0


def _discover_manifests(config: RunConfig) -> list[Path]:
    paths = sorted(config.manifests.glob(f"*{MANIFEST_SUFFIX}"))
    if config.tasks:
        wanted = set(config.tasks)
        paths = [p for p in paths if p.stem in wanted]
    return paths


def _data_path(config: RunConfig, task_id: str) -> Path | None:
    for suffix in (".tsv", ".csv"):
        candidate = config.data / f"{task_id}{suffix}"
        if candidate.exists():
            return candidate
    return None


def _load_task(config: RunConfig, manifest_path: Path):
    """Returns (manifest, split records) or an error string."""
    manifest = corpus.read_manifest(manifest_path)
    problems = corpus.validate_manifest(manifest)
    deferred_range = (
        config.fit_ranges
        and manifest.task_kind == "regression"
        and manifest.label_range is None
    )
    if deferred_range:
        problems = [p for p in problems if "label range" not in p]
    if problems:
        return None, [f"{manifest.task_id}: {p}" for p in problems]
    table_path = _data_path(config, manifest.task_id)
    if table_path is None:
        return None, [f"{manifest.task_id}: no table under {config.data}"]
    loaded = corpus.load_table(table_path, manifest)
    spec = corpus.SplitSpec(method=manifest.split_method, seed=config.seed)
    records = corpus.assign_splits(loaded.records, manifest, spec)
    if deferred_range:
        manifest = corpus.fit_label_range(records, manifest)
    return (manifest, records, loaded.dropped), None


def _shot_pool(records, eval_split: str):
    sources = promptgen.shot_source_splits(eval_split)
    return [r for r in records if r.split in sources]


def _render_split(manifest, records, split, policy, seed):
    kind, k = policy
    pool = _shot_pool(records, split)
    pool_ids = {r.record_id for r in pool}
    index = promptgen.NeighborIndex(manifest, pool) if kind == "knn" and pool else None
    out = []
    for record in records:
        if record.split != split:
            continue
        # The query never donates to itself, so a pool holding only the
        # query renders zero-shot, like an empty pool.
        donors = bool(pool_ids) and pool_ids != {record.record_id}
        shots = ()
        if kind == "random" and donors:
            # Per-record seed must be stable across processes.
            record_seed = seed + zlib.crc32(record.record_id.encode("utf-8"))
            shots = promptgen.select_shots_random(
                pool, k, seed=record_seed, exclude_id=record.record_id,
            )
        elif index is not None and donors:
            shots = index.select_shots(record, k, seed=seed)
        out.append(
            promptgen.fit_length_budget(record, manifest, shots, budget=promptgen.INPUT_BUDGET)
        )
    return out


def cmd_build(config: RunConfig) -> int:
    try:
        policy = _parse_shot_policy(config.shots)
    except ValueError as exc:
        return _fail(str(exc))
    manifest_paths = _discover_manifests(config)
    if not manifest_paths:
        return _fail(f"no *{MANIFEST_SUFFIX} files under {config.manifests}")
    config.out.mkdir(parents=True, exist_ok=True)

    mixture_tasks = {}
    for path in manifest_paths:
        try:
            loaded, problems = _load_task(config, path)
        except (corpus.CorpusError, OSError) as exc:
            return _fail(str(exc))
        if problems:
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            return EXIT_VALIDATION
        manifest, records, dropped = loaded
        if config.fit_ranges:
            corpus.write_manifest(
                manifest, config.out / f"{manifest.task_id}{MANIFEST_SUFFIX}"
            )
        corpus.write_split_audit(records, config.out / f"{manifest.task_id}.splits.tsv")
        for split in ("train", "valid", "test"):
            prompts = _render_split(manifest, records, split, policy, config.seed)
            promptgen.write_prompt_jsonl(
                prompts, config.out / f"{manifest.task_id}.{split}.jsonl"
            )
        mixture_tasks[manifest.task_id] = (
            manifest,
            [r for r in records if r.split == "train"],
        )
        print(
            f"{manifest.task_id}: {len(records)} records "
            f"({dropped} dropped), splits and prompts written"
        )

    if config.mixture > 0:
        stream = promptgen.build_mixture(mixture_tasks, config.mixture, seed=config.seed)
        promptgen.write_prompt_jsonl(stream, config.out / "mixture.jsonl")
        print(f"mixture.jsonl: {config.mixture} prompts")
    return EXIT_OK


def cmd_evaluate(config: RunConfig, split: str = "test") -> int:
    try:
        policy = _parse_shot_policy(config.shots)
    except ValueError as exc:
        return _fail(str(exc))
    if not config.stub and not config.model_url:
        return _fail("need --stub or --model-url (or TXF_MODEL_URL)")
    manifest_paths = _discover_manifests(config)
    if not manifest_paths:
        return _fail(f"no *{MANIFEST_SUFFIX} files under {config.manifests}")
    config.out.mkdir(parents=True, exist_ok=True)

    worst = EXIT_OK
    for path in manifest_paths:
        try:
            loaded, problems = _load_task(config, path)
        except (corpus.CorpusError, OSError) as exc:
            return _fail(str(exc))
        if problems:
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            return EXIT_VALIDATION
        manifest, records, _ = loaded
        prompts = _render_split(manifest, records, split, policy, config.seed)
        if config.stub:
            client = evalharness.make_stub_client(
                config.stub,
                manifest=manifest,
                prompts=prompts,
                train_records=_shot_pool(records, split),
            )
        else:
            client = evalharness.HttpModelClient(config.model_url)
        result = evalharness.evaluate_task(
            manifest, prompts, client, concurrency=config.concurrency
        )
        evalharness.write_result_json(result, config.out / f"{manifest.task_id}.result.json")
        evalharness.write_rows_csv(result, config.out / f"{manifest.task_id}.rows.csv")
        shown = "undefined" if result.value is None else f"{result.value:.6g}"
        print(
            f"{manifest.task_id}: {manifest.metric}={shown} "
            f"n={result.n} invalid_rate={result.invalid_rate:.3f}"
            + (f" failures={len(result.failures)}" if result.failures else "")
        )
        if result.failures:
            worst = max(worst, EXIT_TRANSPORT)
        elif result.value is None:
            worst = max(worst, EXIT_DEGENERATE)
    return worst


def _comparison_payload(result: analysis.ComparisonResult) -> dict:
    return {
        "n": result.n_input,
        "n_used": result.n_used,
        "wins_a": result.wins_a,
        "wins_b": result.wins_b,
        "zeros": result.zeros,
        "statistic": result.statistic,
        "p_value": result.p_value,
    }


def cmd_compare(args) -> int:
    if args.pairs:
        try:
            pairs = analysis.load_pair_rows(args.pairs, args.a_col, args.b_col)
        except (KeyError, ValueError, OSError) as exc:
            return _fail(f"bad pairs file: {exc}")
    else:
        if not (args.results_a and args.results_b):
            return _fail("need --pairs or both --results-a and --results-b")
        pairs = []
        dir_a, dir_b = Path(args.results_a), Path(args.results_b)
        for path_a in sorted(dir_a.glob("*.result.json")):
            path_b = dir_b / path_a.name
            if not path_b.exists():
                continue
            ra = evalharness.read_result_json(path_a)
            rb = evalharness.read_result_json(path_b)
            if ra.get("value") is None or rb.get("value") is None:
                continue
            pairs.append(
                analysis.PairRow(
                    task=ra["task"],
                    metric=ra["metric"],
                    lower_is_better=bool(ra.get("lower_is_better")),
                    a=float(ra["value"]),
                    b=float(rb["value"]),
                )
            )
        if not pairs:
            return _fail("no overlapping task results to compare")
    try:
        result = analysis.compare_pairs(pairs)
    except ValueError as exc:
        return _fail(str(exc))
    payload = _comparison_payload(result)
    print(json.dumps(payload, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_scoreboard(args) -> int:
    try:
        rows = analysis.load_score_rows(args.fixture, model_col=args.model_col)
    except (KeyError, ValueError, OSError) as exc:
        return _fail(f"bad fixture: {exc}")
    counts = analysis.scoreboard(rows, na_as_exceed=not args.no_sota_separate)
    medians = analysis.median_relative_difference_by_feature_type(rows)
    payload = {
        "exceed": counts.exceed,
        "near": counts.near,
        "below": counts.below,
        "no_sota": counts.no_sota,
        "near_or_above": counts.near_or_above,
        "total": counts.total,
        "median_relative_difference_by_feature_type": {
            k: round(v, 6) for k, v in sorted(medians.items())
        },
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_contamination(args) -> int:
    features = []
    try:
        with open(args.features, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                features.append((parts[0], [p for p in parts[1:] if p]))
    except OSError as exc:
        return _fail(f"bad features file: {exc}")
    if not features:
        return _fail("features file is empty")

    def chunks():
        with open(args.corpus, encoding="utf-8", errors="replace") as fh:
            while True:
                block = fh.read(1 << 20)
                if not block:
                    return
                yield block

    try:
        report = analysis.contamination_scan(features, chunks(), max_chars=args.max_chars)
    except OSError as exc:
        return _fail(f"bad corpus: {exc}")
    payload = {
        "n_records": report.n_records,
        "n_flagged": report.n_flagged,
        "percent_overlap": round(report.percent_overlap, 4),
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for record_id, flagged in report.flags.items():
                fh.write(f"{record_id}\t{int(flagged)}\n")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifests", required=True, help="directory of *.manifest files")
    parser.add_argument("--data", required=True, help="directory of <task_id>.tsv/.csv tables")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--shots", default="0", help="shot policy: 0, randomK, or knnK")
    parser.add_argument("--task", action="append", default=[], help="restrict to this task id (repeatable)")


def _config_from_args(args) -> RunConfig | None:
    manifests, data = Path(args.manifests), Path(args.data)
    if not manifests.is_dir():
        print(f"error: manifest directory {manifests} does not exist", file=sys.stderr)
        return None
    if not data.is_dir():
        print(f"error: data directory {data} does not exist", file=sys.stderr)
        return None
    return RunConfig(
        manifests=manifests,
        data=data,
        out=Path(args.out),
        seed=args.seed,
        shots=args.shots,
        model_url=getattr(args, "model_url", None) or os.environ.get("TXF_MODEL_URL"),
        stub=getattr(args, "stub", None),
        concurrency=getattr(args, "concurrency", 4),
        tasks=tuple(args.task),
        mixture=getattr(args, "mixture", 0),
        fit_ranges=getattr(args, "fit_ranges", False),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="txf",
        description="Build instruction prompts from therapeutics tables, "
        "evaluate models, and run benchmark statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="render split audits and prompt JSONL files")
    _add_common(p_build)
    p_build.add_argument("--mixture", type=int, default=0, help="also sample N mixture prompts")
    p_build.add_argument("--fit-ranges", action="store_true", dest="fit_ranges",
                         help="fit missing regression label ranges from the train split")

    p_eval = sub.add_parser("evaluate", help="drive a model over rendered prompts")
    _add_common(p_eval)
    p_eval.add_argument("--model-url", dest="model_url", default=None)
    p_eval.add_argument("--stub", choices=("echo", "majority", "knn"), default=None)
    p_eval.add_argument("--concurrency", type=int, default=4)
    p_eval.add_argument("--split", default="test", choices=("train", "valid", "test"))

    p_cmp = sub.add_parser("compare", help="paired signed-rank comparison of two models")
    p_cmp.add_argument("--pairs", default=None, help="CSV of per-task paired values")
    p_cmp.add_argument("--a-col", dest="a_col", default="a")
    p_cmp.add_argument("--b-col", dest="b_col", default="b")
    p_cmp.add_argument("--results-a", dest="results_a", default=None)
    p_cmp.add_argument("--results-b", dest="results_b", default=None)
    p_cmp.add_argument("--out", default=None)

    p_board = sub.add_parser("scoreboard", help="exceed/near/below counts and per-feature-type medians")
    p_board.add_argument("--fixture", required=True, help="CSV with sota and model columns")
    p_board.add_argument("--model-col", dest="model_col", default="model")
    p_board.add_argument("--no-sota-separate", dest="no_sota_separate", action="store_true",
                         help="bucket rows without a reference separately instead of as exceed")
    p_board.add_argument("--out", default=None)

    p_cont = sub.add_parser("contamination", help="substring scan of features against a corpus")
    p_cont.add_argument("--features", required=True, help="TSV: record id, feature strings...")
    p_cont.add_argument("--corpus", required=True, help="text file to scan")
    p_cont.add_argument("--max-chars", dest="max_chars", type=int, default=512)
    p_cont.add_argument("--out", default=None, help="write per-record flags TSV here")

    args = parser.parse_args(argv)
    if args.command in ("build", "evaluate"):
        config = _config_from_args(args)
        if config is None:
            return EXIT_VALIDATION
        if args.command == "build":
            return cmd_build(config)
        return cmd_evaluate(config, split=args.split)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "scoreboard":
        return cmd_scoreboard(args)
    return cmd_contamination(args)


if __name__ == "__main__":
    sys.exit(main())
