"""Command-line entry point binding the pipeline end to end.

Exit codes: 0 success, 1 validation failure, 2 transport failure,
3 degenerate metric. ``main`` is the one error boundary: commands raise
``ValueError``, ``KeyError`` or ``OSError`` on bad input, and ``main`` prints
each line of the message as ``error: <line>`` and returns 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import zlib
from pathlib import Path

from .atomic import write_atomically

# The layers are imported inside the functions that run them, not here:
# start-up is most of a short command's time, contamination needs no layer
# but txf.contamination, and scoreboard none but txf.analysis.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TRANSPORT = 2
EXIT_DEGENERATE = 3

MANIFEST_SUFFIX = ".manifest"
SPLITS = ("train", "valid", "test")
# K counts shots, so it is at least 1.
_SHOT_POLICY = re.compile(r"^(?:0|(random|knn)(0*[1-9]\d*))$")


def _parse_shot_policy(text: str) -> tuple[str, int]:
    match = _SHOT_POLICY.match(text)
    if not match:
        raise ValueError(f"bad shot policy {text!r}; expected 0, randomK, or knnK")
    kind, k = match.groups()
    return (kind, int(k)) if kind else ("zero", 0)


def _tasks(args):
    """Yields (manifest, split records, dropped rows, feature table) for each
    selected task, after creating the output directory. The table is the
    task's own: its split, shot indexes and knn stub convert each distinct
    feature once, and it is dropped with the task."""
    from . import corpus

    manifests, data = Path(args.manifests), Path(args.data)
    for what, path in (("manifest", manifests), ("data", data)):
        if not path.is_dir():
            raise ValueError(f"{what} directory {path} does not exist")
    paths = sorted(manifests.glob(f"*{MANIFEST_SUFFIX}"))
    if args.task:
        paths = [p for p in paths if p.stem in args.task]
        unknown = sorted(set(args.task) - {p.stem for p in paths})
        if unknown:
            raise ValueError(f"no {MANIFEST_SUFFIX} file under {manifests} for --task {', '.join(unknown)}")
    if not paths:
        raise ValueError(f"no *{MANIFEST_SUFFIX} files under {manifests}")
    Path(args.out).mkdir(parents=True, exist_ok=True)

    for path in paths:
        manifest = corpus.read_manifest(path)
        # The task id names the table read and every file written.
        if manifest.task_id != path.stem:
            raise ValueError(f"{path}: task_id {manifest.task_id!r} is not the file's name {path.stem!r}")
        # The one invariant a manifest may leave open: --fit-ranges fits it.
        unranged = manifest.task_kind == "regression" and manifest.label_range is None
        if unranged and not args.fit_ranges:
            raise ValueError(f"{manifest.task_id}: regression manifest needs a label range")
        files = [data / f"{manifest.task_id}{s}" for s in (".tsv", ".csv")]
        file = next((f for f in files if f.exists()), None)
        if file is None:
            raise ValueError(f"{manifest.task_id}: no table under {data}")
        loaded = corpus.load_table(file, manifest)
        table = corpus.FeatureTable()
        records = corpus.assign_splits(loaded.records, manifest, args.seed, table)
        if unranged:
            manifest = corpus.fit_label_range(records, manifest)
        yield manifest, records, loaded.dropped, table


def _render(manifest, records, splits, policy, seed, table):
    """Yields (split, shot pool, neighbour index or None, prompts) for each
    split. Splits that draw shots from the same splits share one pool, one
    record id -> pool position map and, for knn shots, one neighbour index
    over the task's feature table. knn shots for a task with no
    similarity-capable role are random shots."""
    from . import promptgen

    kind, k = policy
    if kind == "knn" and not manifest.similarity_roles()[0]:
        print(
            f"warning: {manifest.task_id}: no similarity-capable role; using random shots",
            file=sys.stderr,
        )
        kind = "random"
    pools = {}
    for split in splits:
        sources = promptgen.shot_source_splits(split)
        if sources not in pools:
            pool = [r for r in records if r.split in sources]
            index = promptgen.NeighborIndex(manifest, pool, table) if kind == "knn" and pool else None
            positions = {r.record_id: i for i, r in enumerate(pool)}
            pools[sources] = pool, index, positions
        pool, index, positions = pools[sources]
        prompts = []
        for record in records:
            if record.split != split:
                continue
            position = positions.get(record.record_id)
            # The query never donates to itself, so a pool holding only the
            # query renders zero-shot, like an empty pool.
            donors = len(pool) > (position is not None)
            shots = ()
            if kind == "random" and donors:
                # Per-record seed must be stable across processes.
                record_seed = seed + zlib.crc32(record.record_id.encode("utf-8"))
                shots = promptgen.select_shots_random(pool, k, seed=record_seed, exclude=position)
            elif index is not None and donors:
                ranked = index.nearest(record.features, k, exclude=position)
                shots = [pool[i] for i, _ in ranked]
            prompts.append(
                promptgen.render_prompt(record, manifest, shots, budget=promptgen.INPUT_BUDGET)
            )
        yield split, pool, index, prompts


def cmd_build(args) -> int:
    from . import corpus, promptgen

    policy = _parse_shot_policy(args.shots)
    if args.mixture < 0:
        raise ValueError(f"--mixture must be at least 0, not {args.mixture}")
    out = Path(args.out)
    mixture_tasks = {}
    for manifest, records, dropped, table in _tasks(args):
        if args.fit_ranges:
            corpus.write_manifest(manifest, out / f"{manifest.task_id}{MANIFEST_SUFFIX}")
        corpus.write_split_audit(records, out / f"{manifest.task_id}.splits.tsv")
        for split, _, _, prompts in _render(manifest, records, SPLITS, policy, args.seed, table):
            promptgen.write_prompt_jsonl(prompts, out / f"{manifest.task_id}.{split}.jsonl")
        mixture_tasks[manifest.task_id] = (
            manifest,
            [r for r in records if r.split == "train"],
        )
        print(
            f"{manifest.task_id}: {len(records)} records "
            f"({dropped} dropped), splits and prompts written"
        )

    if args.mixture > 0:
        stream = promptgen.build_mixture(mixture_tasks, args.mixture, seed=args.seed)
        promptgen.write_prompt_jsonl(stream, out / "mixture.jsonl")
        print(f"mixture.jsonl: {args.mixture} prompts")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import evalharness, promptgen

    policy = _parse_shot_policy(args.shots)
    model_url = args.model_url or os.environ.get("TXF_MODEL_URL")
    if not args.stub and not model_url:
        raise ValueError("need --stub or --model-url (or TXF_MODEL_URL)")
    if args.concurrency < 1:
        raise ValueError(f"--concurrency must be at least 1, not {args.concurrency}")
    out = Path(args.out)
    worst = EXIT_OK
    http_client = None
    if not args.stub:
        from .transport import HttpModelClient  # only HTTP evaluation loads the transport

        # One HTTP client serves every task, so its connections are reused.
        http_client = HttpModelClient(model_url)
    with http_client or contextlib.nullcontext():
        for manifest, records, _, table in _tasks(args):
            [(_, pool, index, prompts)] = _render(
                manifest, records, (args.split,), policy, args.seed, table
            )
            if http_client:
                client = http_client
            elif args.stub == "echo":
                client = evalharness.EchoClient(prompts)
            elif args.stub == "majority":
                client = evalharness.MajorityClient()
            else:
                # knn shots built an index over this pool; other shots did not.
                client = evalharness.NearestNeighborClient(
                    index or promptgen.NeighborIndex(manifest, pool, table)
                )
            result = evalharness.evaluate_task(
                manifest, prompts, client, concurrency=args.concurrency
            )
            evalharness.write_result_json(result, out / f"{manifest.task_id}.result.json")
            evalharness.write_rows_csv(result, out / f"{manifest.task_id}.rows.csv")
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


def _report(payload: dict, out: str | None) -> None:
    """Prints the payload as JSON and, with --out, writes it there too."""
    text = json.dumps(payload, indent=2)
    print(text)
    if out:
        write_atomically(out, lambda fh: fh.write(text + "\n"))


def _scored_by(result: dict) -> str:
    better = "lower" if result["lower_is_better"] else "higher"
    return f"{result['metric']} ({better} is better)"


def _result_pairs(dir_a: Path, dir_b: Path) -> list:
    """One ``analysis.PairRow`` per task with a defined value in both result
    directories. A task must be scored by the same metric, in the same
    direction, in both."""
    from . import analysis, evalharness

    for path in (dir_a, dir_b):
        if not path.is_dir():
            raise ValueError(f"results directory {path} does not exist")
    pairs = []
    for path_a in sorted(dir_a.glob("*.result.json")):
        path_b = dir_b / path_a.name
        if not path_b.exists():
            continue
        ra = evalharness.read_result_json(path_a)
        rb = evalharness.read_result_json(path_b)
        scored_a, scored_b = _scored_by(ra), _scored_by(rb)
        if scored_a != scored_b:
            raise ValueError(f"task {ra['task']}: scored by {scored_a} in {dir_a} but {scored_b} in {dir_b}")
        if ra["value"] is None or rb["value"] is None:
            continue
        pairs.append(
            analysis.PairRow(
                task=ra["task"],
                metric=ra["metric"],
                lower_is_better=ra["lower_is_better"],
                a=float(ra["value"]),
                b=float(rb["value"]),
            )
        )
    if not pairs:
        raise ValueError("no overlapping task results to compare")
    return pairs


def cmd_compare(args) -> int:
    from . import analysis

    if args.pairs:
        if args.results_a or args.results_b:
            raise ValueError("--pairs cannot be given with --results-a or --results-b")
        pairs = analysis.load_pair_rows(args.pairs, args.a_col, args.b_col)
    elif args.results_a and args.results_b:
        pairs = _result_pairs(Path(args.results_a), Path(args.results_b))
    else:
        raise ValueError("need --pairs or both --results-a and --results-b")
    result = analysis.compare_pairs(pairs)
    _report(
        {
            "n": result.n_input,
            "n_used": result.n_used,
            "wins_a": result.wins_a,
            "wins_b": result.wins_b,
            "zeros": result.zeros,
            "statistic": result.statistic,
            "p_value": result.p_value,
        },
        args.out,
    )
    return EXIT_OK


def cmd_scoreboard(args) -> int:
    from . import analysis

    rows = analysis.load_score_rows(args.fixture, model_col=args.model_col)
    verdicts = analysis.scoreboard(rows, na_as_exceed=not args.no_sota_separate)
    counts = {v: verdicts.count(v) for v in analysis.VERDICTS}
    medians = analysis.median_relative_difference_by_feature_type(rows)
    _report(
        {
            **counts,
            "near_or_above": counts["exceed"] + counts["near"],
            "total": len(verdicts),
            "median_relative_difference_by_feature_type": {
                k: round(v, 6) for k, v in sorted(medians.items())
            },
        },
        args.out,
    )
    return EXIT_OK


def cmd_contamination(args) -> int:
    from . import contamination

    features = []
    first_line: dict[str, int] = {}  # record id -> the line that gave it
    try:
        with open(args.features, encoding="utf-8-sig") as fh:
            for n, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                record_id, *values = line.split("\t")
                # A flag is written per id, so an empty or repeated id
                # would hide a record or merge two.
                if not record_id:
                    raise ValueError(f"{args.features}:{n}: empty record id")
                if record_id in first_line:
                    raise ValueError(
                        f"{args.features}:{n}: record id {record_id!r} repeats line {first_line[record_id]}"
                    )
                first_line[record_id] = n
                features.append((record_id, [v for v in values if v]))
    except UnicodeDecodeError:
        raise ValueError(f"{args.features}: not UTF-8 text") from None
    if not features:
        raise ValueError(f"{args.features}: features file is empty")

    def chunks():
        with open(args.corpus, encoding="utf-8", errors="replace") as fh:
            while True:
                block = fh.read(1 << 20)
                if not block:
                    return
                yield block

    flags = contamination.contamination_scan(features, chunks(), max_chars=args.max_chars)
    n_records = len(flags)
    n_flagged = sum(flags.values())
    payload = {
        "n_records": n_records,
        "n_flagged": n_flagged,
        "percent_overlap": round(100.0 * n_flagged / n_records, 4),
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        def write(fh):
            for record_id, flagged in flags.items():
                fh.write(f"{record_id}\t{int(flagged)}\n")

        write_atomically(args.out, write)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors through main's error boundary, not with exit 2."""

    def error(self, message):
        raise ValueError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifests", required=True, help="directory of *.manifest files")
    parser.add_argument("--data", required=True, help="directory of <task_id>.tsv/.csv tables")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--shots", default="0", help="shot policy: 0, randomK, or knnK")
    parser.add_argument("--task", action="append", default=[], help="restrict to this task id (repeatable)")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_build.set_defaults(run=cmd_build)

    p_eval = sub.add_parser("evaluate", help="drive a model over rendered prompts")
    _add_common(p_eval)
    source = p_eval.add_mutually_exclusive_group()
    source.add_argument("--model-url", dest="model_url", default=None)
    source.add_argument("--stub", choices=("echo", "majority", "knn"), default=None)
    p_eval.add_argument("--concurrency", type=int, default=4)
    p_eval.add_argument("--split", default="test", choices=SPLITS)
    p_eval.set_defaults(run=cmd_evaluate, fit_ranges=False)

    p_cmp = sub.add_parser("compare", help="paired signed-rank comparison of two models")
    p_cmp.add_argument("--pairs", default=None, help="CSV of per-task paired values")
    p_cmp.add_argument("--a-col", dest="a_col", default="a")
    p_cmp.add_argument("--b-col", dest="b_col", default="b")
    p_cmp.add_argument("--results-a", dest="results_a", default=None)
    p_cmp.add_argument("--results-b", dest="results_b", default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(run=cmd_compare)

    p_board = sub.add_parser("scoreboard", help="exceed/near/below counts and per-feature-type medians")
    p_board.add_argument("--fixture", required=True, help="CSV with sota and model columns")
    p_board.add_argument("--model-col", dest="model_col", default="model")
    p_board.add_argument("--no-sota-separate", dest="no_sota_separate", action="store_true",
                         help="bucket rows without a reference separately instead of as exceed")
    p_board.add_argument("--out", default=None)
    p_board.set_defaults(run=cmd_scoreboard)

    p_cont = sub.add_parser("contamination", help="substring scan of features against a corpus")
    p_cont.add_argument("--features", required=True, help="TSV: record id, feature strings...")
    p_cont.add_argument("--corpus", required=True, help="text file to scan")
    p_cont.add_argument("--max-chars", dest="max_chars", type=int, default=512)
    p_cont.add_argument("--out", default=None, help="write per-record flags TSV here")
    p_cont.set_defaults(run=cmd_contamination)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except (ValueError, KeyError, OSError) as exc:
        for line in (str(exc) or type(exc).__name__).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
