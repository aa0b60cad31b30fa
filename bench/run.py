"""txf benchmark: drives the ``txf`` command line on synthetic workloads.

    python3 bench/run.py --workload mol-knn --seed 1 --seconds 40 --trace 0

Run it from a checkout of the repository; it imports txf from ``src/``.
Each run sets up the workload (cold ``import txf``, input generation and,
for corpus-http, the fake model server) several times and reports the
median, then repeats build -> evaluate -> contamination cycles for
``--seconds`` and reports medians over cycles. Every timed step is scaled
to a nominal host speed by a reference job timed around it (``HostClock``),
because the host's own speed drifts more than the bounds. With
``--trace 1`` each cycle's commands run once plainly and once under
``tracer.py``, and the per-layer metrics are reported instead.
``--workload all`` runs every workload in turn. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # the gate calls into txf

import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Median wall time of reference.py on a 2-vCPU VM, and its checksum.
REFERENCE_NOMINAL_S = 0.22
REFERENCE_CHECKSUM = "94494"
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 1
COMMAND_TIMEOUT_S = 60
MIN_COMMAND_S = 1.0
MAX_REPEATS = 8
# Closed-loop HTTP clients: never more than there are processors.
HTTP_CONCURRENCY = min(2, os.cpu_count() or 1)
IMPORT_PROBE = "import txf.cli"

E2E_UNITS = {
    "setup_s": "s",
    "build_prompts_per_s": "1/s",
    "eval_records_per_s": "1/s",
    "scan_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Work per second of each txf command, once per cycle; the report gives the
# median over the run's cycles.
RATE_METRICS = {
    "build_prompts_per_s": "build",
    "eval_records_per_s": "evaluate",
    "scan_mb_per_s": "contamination",
}

LAYER_UNITS = {
    "chem.parse_smiles.calls": "count",
    "chem.parse_smiles.self_s": "s",
    "chem.morgan_fingerprint.calls": "count",
    "chem.morgan_fingerprint.self_s": "s",
    "chem.tanimoto.calls": "count",
    "chem.tanimoto.self_s": "s",
    "chem.fingerprint_distinct_ratio": "ratio",
    "chem.scaffold_key.calls": "count",
    "chem.scaffold_key.self_s": "s",
    "chem.write_canonical.calls": "count",
    "chem.write_canonical.self_s": "s",
    "chem.score_reactant_prediction.calls": "count",
    "chem.score_reactant_prediction.self_s": "s",
    "bioseq.percent_identity.calls": "count",
    "bioseq.percent_identity.self_s": "s",
    "bioseq.distinct_pair_ratio": "ratio",
    "bioseq.cells_per_s": "1/s",
    "corpus.load_table.rows": "count",
    "corpus.load_table.dropped": "count",
    "corpus.load_table.self_s": "s",
    "corpus.assign_splits.self_s": "s",
    "promptgen.feature_similarity_fn.calls": "count",
    "promptgen.select_shots_knn.self_s": "s",
    "promptgen.render_prompt.calls": "count",
    "promptgen.render_prompt.calls_per_prompt": "ratio",
    "promptgen.shots_trimmed": "count",
    "promptgen.select_shots_random.self_s": "s",
    "promptgen.build_mixture.prompts_per_s": "1/s",
    "promptgen.write_prompt_jsonl.self_s": "s",
    "evalharness.http.request_p50_ms": "ms",
    "evalharness.http.request_p99_ms": "ms",
    "evalharness.http.attempts_per_record": "ratio",
    "evalharness.parse.self_s": "s",
    "evalharness.score_rows.self_s": "s",
    "evalharness.knn_stub.generate.self_s": "s",
    "analysis.contamination_scan.patterns": "count",
    "analysis.contamination_scan.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def txf_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TXF_MODEL_URL", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Command:
    wall_s: float
    code: int
    rss_mb: float


def run_process(argv: list[str], log: Path) -> Command:
    """Run to completion; wall time, exit code and the child's peak RSS."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=txf_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def run_txf(args: list[str], log: Path, spans: Path | None = None) -> Command:
    if spans is None:
        argv = [sys.executable, "-m", "txf.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *args]
    return run_process(argv, log)


class FakeModel:
    """The fake model server process; stopped by closing its stdin."""

    def __init__(self, answers: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fakemodel.py"), "--answers", str(answers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening "):
            self.stop()
            raise RuntimeError(f"fake model did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.load(resp)

    def stop(self) -> dict[str, int] | None:
        try:
            self.proc.stdin.close()
            tail = self.proc.stdout.read().decode().strip()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
            return None
        return json.loads(tail) if tail else None


class HostClock:
    """Scales wall times to nominal host speed.

    The host's speed drifts by tens of percent within a minute and holds
    for a few seconds, so a fixed reference job (reference.py) runs right
    before and right after each timed step, and the step's wall time is
    scaled by the nominal reference time over the mean of those two.
    """

    def __init__(self, run: "Run", log: Path):
        self.run = run
        self.last = self.reference(log)
        self.speeds: list[float] = []

    def reference(self, log: Path) -> float:
        result = run_process([sys.executable, str(HERE / "reference.py")], log)
        out = log.with_suffix(".out").read_text("utf-8").strip()
        self.run.record("reference job", result.code == 0 and out == REFERENCE_CHECKSUM,
                        f"exit {result.code}, printed {out!r}")
        return result.wall_s

    def scale(self, wall: float, log: Path) -> float:
        after = self.reference(log)
        speed = REFERENCE_NOMINAL_S / ((self.last + after) / 2)
        self.last = after
        self.speeds.append(speed)
        return wall * speed


@dataclass
class Run:
    workload: str
    seed: int
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}")


def set_up(run: Run) -> tuple[workloads.Workload, FakeModel | None, float]:
    """Median-of-SETUP_REPEATS set-up, scaled to nominal host speed; the
    last one is kept."""
    times = []
    clock = HostClock(run, run.work / "reference-setup")
    for rep in range(SETUP_REPEATS):
        root = run.work / f"setup{rep}"
        started = time.perf_counter()
        probe = run_process([sys.executable, "-c", IMPORT_PROBE], run.work / f"import{rep}")
        w = workloads.generate(run.workload, run.seed, root)
        server = FakeModel(w.answers) if w.answers else None
        elapsed = time.perf_counter() - started
        try:
            times.append(clock.scale(elapsed, run.work / f"reference-setup{rep}"))
        except BaseException:  # measure() has no handle on this server yet
            if server:
                server.stop()
            raise
        run.record("import txf", probe.code == 0, f"exit {probe.code}")
        if rep + 1 < SETUP_REPEATS:
            if server:
                server.stop()
            shutil.rmtree(root)
    return w, server, statistics.median(times)


def prepare_scan(w: workloads.Workload, out: Path) -> tuple[Path, Path]:
    """Test-split features of every task, and the corpus to scan for them:
    the mixture when there is one, otherwise all rendered prompts."""
    scan = out / "scan"
    scan.mkdir(parents=True, exist_ok=True)
    features = scan / "features.tsv"
    with open(features, "w", encoding="utf-8") as fh:
        for task in w.tasks:
            header, rows = gate.read_table(w, task.task_id)
            columns = [header.index(c) for c in task.features]
            for record_id, split in gate.read_audit(out, task.task_id).items():
                if split == "test":
                    values = [rows[int(record_id)][i] for i in columns]
                    fh.write("\t".join([f"{task.task_id}:{record_id}", *values]) + "\n")
    if w.mixture:
        return features, out / "build" / "mixture.jsonl"
    corpus = out / "corpus.jsonl"
    with open(corpus, "wb") as fh:
        for task in w.tasks:
            for split in gate.SPLITS:
                fh.write((out / "build" / f"{task.task_id}.{split}.jsonl").read_bytes())
    return features, corpus


def _count_lines(paths) -> int:
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def _results(w, out: Path) -> list[dict]:
    return [json.loads((out / "eval" / f"{t.task_id}.result.json").read_text("utf-8"))
            for t in w.tasks]


def cycle(run: Run, w, server, out: Path, spans: Path | None = None,
          clock: HostClock | None = None) -> dict:
    """build -> evaluate -> contamination once; per-command walls and work.

    The host's speed drifts over seconds, so commands are interleaved
    rather than repeated back to back: each cycle gives one sample of each.
    With a clock, each wall is also scaled to nominal host speed, and a
    command that ends sooner than MIN_COMMAND_S runs again (up to
    MAX_REPEATS times), so that short commands are not measured on less
    time than long ones; a sample then covers all its runs.
    """
    logs = out / "logs"
    logs.mkdir(parents=True)
    common = ["--manifests", str(w.manifests), "--data", str(w.data), "--seed", str(run.seed)]
    build_args = ["build", *common, "--out", str(out / "build"), "--shots", w.build_shots]
    if w.mixture:
        build_args += ["--mixture", str(w.mixture)]
    eval_args = ["evaluate", *common, "--out", str(out / "eval"), "--shots", w.eval_shots]
    if w.eval_stub:
        eval_args += ["--stub", w.eval_stub]
    else:
        eval_args += ["--model-url", server.url + "/generate",
                      "--concurrency", str(HTTP_CONCURRENCY)]
    walls, scaled, runs = {}, {}, {}

    def txf(name, args, after=None) -> Command:
        """Run one command (repeatedly, with a clock); return its last run."""
        log = logs / name
        walls[name] = 0.0
        runs[name] = 0
        while True:
            result = run_txf(args, log, spans / f"{name}.json" if spans else None)
            walls[name] += result.wall_s
            runs[name] += 1
            if clock:
                scaled[name] = scaled.get(name, 0.0) + clock.scale(
                    result.wall_s, logs / f"reference-{name}")
            err = log.with_suffix(".err").read_text("utf-8", "replace").strip()
            run.record(f"txf {name}", result.code == 0, f"exit {result.code}: {err[-300:]}")
            if after:
                after()
            if not clock or walls[name] >= MIN_COMMAND_S or runs[name] == MAX_REPEATS:
                return result

    build = txf("build", build_args)
    requests = [server.stats()["requests"] if server else 0, None]  # total, last run

    def count_evaluation() -> None:
        """Requests the server saw for this run, and its records as operations."""
        if server:
            now = server.stats()["requests"]
            requests[:] = [now, now - requests[0]]
            results = _results(w, out)
            run.attempted += sum(r["n"] for r in results)
            run.failed += sum(len(r["failures"]) for r in results)

    evaluate = txf("evaluate", eval_args, count_evaluation)
    records = sum(r["n"] for r in _results(w, out))
    features, corpus = prepare_scan(w, out)
    scan = txf("contamination", ["contamination", "--features", str(features),
                                 "--corpus", str(corpus), "--out", str(out / "scan" / "flags.tsv")])
    return {
        "walls": walls,
        "scaled": scaled,
        "work": {
            "build": _count_lines((out / "build").glob("*.jsonl")) * runs["build"],
            "evaluate": records * runs["evaluate"],
            "contamination": corpus.stat().st_size / 1e6 * runs["contamination"],
        },
        "peak_rss_mb": max(build.rss_mb, evaluate.rss_mb, scan.rss_mb),
        "records": records,
        "requests": requests[1],
        "features": features,
        "corpus": corpus,
    }


def run_gate(run: Run, w, out: Path, info: dict, digests: list[str]) -> None:
    answers = json.loads(w.answers.read_text("utf-8")) if w.answers else None
    checks = [
        *gate.check_splits(w, out),
        *gate.check_no_self_shots(w, out),
        *gate.check_contamination(out, info["features"], info["corpus"]),
        *gate.check_evaluation(w, out, answers, info["requests"]),
        ("deterministic_outputs", len(set(digests)) == 1, f"{len(set(digests))} distinct digests"),
    ]
    if w.build_shots.startswith("knn"):
        checks += list(gate.check_knn_order(w, out, run.seed))
    for name, ok, detail in checks:
        run.record(f"gate {name}", ok, detail)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans_dir: Path, walls: dict, plain_walls: dict, info: dict) -> tuple[dict, list]:
    """Per-layer metrics of one traced cycle, and its HTTP latencies in ms."""
    calls, self_s, total_s, counters = Counter(), Counter(), Counter(), Counter()
    latencies: list[float] = []
    cli_self = 0.0
    for command, wall in walls.items():
        data = json.loads((spans_dir / f"{command}.json").read_text("utf-8"))
        spans = data["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        in_layers = 0.0  # main-thread time inside top-level layer spans
        for i, (name, start, end, parent, thread) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            if name == "evalharness.http.generate":
                latencies.append((end - start) * 1000.0)
            if parent < 0 and thread == data["main_thread"]:
                in_layers += end - start
        counters.update(data["counters"])
        cli_self += wall - in_layers

    def n(name):
        return calls[name]

    def s(name):
        return self_s[name]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in ("parse_smiles", "morgan_fingerprint", "tanimoto", "scaffold_key",
               "write_canonical", "score_reactant_prediction"):
        m[f"chem.{fn}.calls"] = n(f"chem.{fn}")
        m[f"chem.{fn}.self_s"] = s(f"chem.{fn}")
    m["chem.fingerprint_distinct_ratio"] = ratio(
        counters["chem.fingerprint_distinct"], n("chem.morgan_fingerprint"))
    m["bioseq.percent_identity.calls"] = n("bioseq.percent_identity")
    m["bioseq.percent_identity.self_s"] = s("bioseq.percent_identity")
    m["bioseq.distinct_pair_ratio"] = ratio(
        counters["bioseq.distinct_pairs"], n("bioseq.percent_identity"))
    m["bioseq.cells_per_s"] = ratio(counters["bioseq.cells"], s("bioseq.percent_identity"))
    m["corpus.load_table.rows"] = counters["corpus.load_table.rows"]
    m["corpus.load_table.dropped"] = counters["corpus.load_table.dropped"]
    m["corpus.load_table.self_s"] = s("corpus.load_table")
    m["corpus.assign_splits.self_s"] = s("corpus.assign_splits")
    m["promptgen.feature_similarity_fn.calls"] = n("promptgen.feature_similarity_fn")
    m["promptgen.select_shots_knn.self_s"] = s("promptgen.select_shots_knn")
    m["promptgen.render_prompt.calls"] = n("promptgen.render_prompt")
    m["promptgen.render_prompt.calls_per_prompt"] = ratio(
        n("promptgen.render_prompt"), counters["promptgen.emitted"])
    m["promptgen.shots_trimmed"] = counters["promptgen.shots_trimmed"]
    m["promptgen.select_shots_random.self_s"] = s("promptgen.select_shots_random")
    # Inclusive: an item's time covers the shot sampling and rendering it does.
    m["promptgen.build_mixture.prompts_per_s"] = ratio(
        counters["promptgen.build_mixture.items"], total_s["promptgen.build_mixture"])
    m["promptgen.write_prompt_jsonl.self_s"] = s("promptgen.write_prompt_jsonl")
    m["evalharness.http.attempts_per_record"] = ratio(info["requests"] or 0, info["records"])
    m["evalharness.parse.self_s"] = (
        s("evalharness.parse_binary_answer") + s("evalharness.parse_regression_answer"))
    m["evalharness.score_rows.self_s"] = s("evalharness.score_rows")
    m["evalharness.knn_stub.generate.self_s"] = s("evalharness.knn_stub.generate")
    m["analysis.contamination_scan.patterns"] = counters["analysis.contamination_scan.patterns"]
    m["analysis.contamination_scan.self_s"] = s("analysis.contamination_scan")
    m["cli.self_s"] = cli_self
    traced = sum(walls.values())
    plain = sum(plain_walls.values())
    m["trace.overhead_s"] = traced - plain
    m["trace.overhead_ratio"] = (traced - plain) / plain
    return m, latencies


# ---------------------------------------------------------------------------
# Measurement and report
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    server = served = clock = None
    setup_s = 0.0
    cycles, digests, layer_runs, latencies = [], [], [], []
    try:
        w, server, setup_s = set_up(run)
        started = time.perf_counter()
        clock = None if trace else HostClock(run, work / "reference-start")
        i = 0
        least = MIN_TRACED_CYCLES if trace else MIN_CYCLES
        # Stop before a cycle that would end past the deadline.
        while i < least or (time.perf_counter() - started) * (i + 1) / i <= seconds:
            out = work / f"cycle{i}"
            if not trace:
                info = cycle(run, w, server, out, clock=clock)
            else:
                spans = work / f"spans{i}"
                spans.mkdir()
                traced_out = work / f"traced{i}"
                # Alternate which runs first so warm caches favour neither.
                if i % 2 == 0:
                    info = cycle(run, w, server, out)
                    traced = cycle(run, w, server, traced_out, spans)
                else:
                    traced = cycle(run, w, server, traced_out, spans)
                    info = cycle(run, w, server, out)
                digests.append(gate.digest(traced_out))
                metrics, lat = layer_metrics(spans, traced["walls"], info["walls"], traced)
                layer_runs.append(metrics)
                latencies += lat
                shutil.rmtree(traced_out)
                shutil.rmtree(spans)
            cycles.append(info)
            digests.append(gate.digest(out))
            walls = ", ".join(f"{k} {v:.3f} s" for k, v in info["walls"].items())
            if info["scaled"]:
                walls += " (scaled " + ", ".join(f"{v:.3f}" for v in info["scaled"].values()) + ")"
            print(f"cycle {i}: {walls}", file=sys.stderr, flush=True)
            if i > 0:
                shutil.rmtree(work / f"cycle{i - 1}")
            i += 1
        run_gate(run, w, out, info, digests)
    except Exception as exc:  # a failed txf command leaves its outputs missing
        traceback.print_exc()
        run.record("benchmark", False, "".join(traceback.format_exception_only(exc)).strip())
    finally:
        if server:
            served = server.stop()
        shutil.rmtree(work, ignore_errors=True)

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    if trace:
        metrics = {k: median(r[k] for r in layer_runs) for k in layer_runs[0]} if layer_runs else {}
        # Percentiles pool every traced cycle's requests.
        metrics["evalharness.http.request_p50_ms"] = _quantile(latencies, 0.50)
        metrics["evalharness.http.request_p99_ms"] = _quantile(latencies, 0.99)
        units = LAYER_UNITS
    else:
        def rates(walls: str) -> dict:
            return {k: median(c["work"][cmd] / c[walls][cmd] for c in cycles)
                    for k, cmd in RATE_METRICS.items()}

        metrics = rates("scaled")
        metrics["peak_rss_mb"] = median(c["peak_rss_mb"] for c in cycles)
        unscaled = rates("walls")
        unscaled["host_speed"] = median(clock.speeds) if clock else 0.0
        metrics["setup_s"] = setup_s
        metrics["success_rate"] = 1.0 - run.failed / run.attempted
        units = E2E_UNITS
    report = {
        "cycles": len(cycles),
        "unscaled": {} if trace else unscaled,
        "digest": digests[-1] if digests else "none",
        "served": served,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in units},
    }
    return run, report


def print_report(run: Run, report: dict) -> None:
    print(f"workload {run.workload} seed {run.seed}: {report['cycles']} cycles")
    for name, m in report["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name, value in report["unscaled"].items():
        print(f"  {'(unscaled) ' + name:44s} {value:.6g}")
    error_rate = run.failed / run.attempted
    print(f"  {'error_rate':44s} {error_rate:.6g} ratio "
          f"({run.failed} of {run.attempted} operations failed)")
    verdict = "PASS" if not run.failed else "FAIL"
    print(f"  correctness gate: {verdict}; output digest sha256:{report['digest']}")
    for problem in run.problems:
        print(f"    {problem}")
    if report["served"]:
        print(f"  fake model requests: {json.dumps(report['served'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="txf benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so child processes are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "txf" / "cli.py").is_file():
        print(f"error: no txf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, report = measure(name, args.seed, args.seconds, bool(args.trace))
        print_report(run, report)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in report["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
