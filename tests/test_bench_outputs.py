"""The benchmark's three workloads at seed 1 produce byte-identical outputs.

One ``bench/run.py`` cycle (build, evaluate, contamination) runs per
workload without a clock, so each command runs once; the benchmark's gate
checks its outputs, and the SHA-256 over every result file is pinned. A
change that moves any output byte on purpose updates its digest here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

# run.py puts bench/ and src/ on sys.path and imports gate and workloads.
_PATH = Path(__file__).resolve().parents[1] / "bench" / "run.py"
_SPEC = importlib.util.spec_from_file_location("bench_run", _PATH)
run = sys.modules["bench_run"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)

DIGESTS = {
    "mol-knn": "d6a8a22631fe007b8498bc5da2570a677a418a0d064b7c1c79c25c17f9ff98ef",
    "dti-coldstart": "fe242ca6d4c3e561f72c77a68c3b53d9c12cc314e4ae6d8617f556c7793fef09",
    "corpus-http": "b062fb749a634b77d7d0faf01659e43856ae20d3026817567ec1416f7c028a9f",
}


@pytest.mark.parametrize("name", DIGESTS)
def test_workload_outputs_are_byte_identical(name, tmp_path):
    w = run.workloads.generate(name, 1, tmp_path / "w")
    server = run.FakeModel(w.answers) if w.answers else None
    try:
        out = tmp_path / "out"
        bench = run.Run(name, 1, tmp_path)
        info = run.cycle(bench, w, server, out)
        digest = run.gate.digest(out)
        run.run_gate(bench, w, out, info, [digest])
    finally:
        if server:
            server.stop()
            server.proc.stdout.close()
    assert bench.problems == []
    assert digest == DIGESTS[name]
