"""Span tracing for the benchmark's traced run.

Run the txf command line under tracing with

    python3 bench/tracer.py --spans spans.json -- build --manifests ...

Before ``txf.cli.main`` runs, every public function of each layer
(``txf.chem``, ``bioseq``, ``corpus``, ``promptgen``, ``evalharness``,
``analysis``) is wrapped, in its own module and in every txf module that
imported it by name, together with the model clients' ``generate`` methods.
Nothing inside ``src/txf`` changes. Spans (name, start, end, parent,
thread) stay in memory and are written to the spans file when the command
ends, with a few counters taken at the same boundaries.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYER_MODULES = ("chem", "bioseq", "corpus", "promptgen", "evalharness", "analysis")

# Model-client methods traced under their own span names.
CLIENT_METHODS = {
    "HttpModelClient": "evalharness.http.generate",
    "NearestNeighborClient": "evalharness.knn_stub.generate",
    "EchoClient": "evalharness.echo_stub.generate",
    "MajorityClient": "evalharness.majority_stub.generate",
}


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self.counters: dict[str, float] = {}
        self._fingerprinted: set[int] = set()
        self._pairs: set[int] = set()
        self._local = threading.local()
        # Model clients run in worker threads; span indices and counter
        # updates are read-modify-write.
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), 0.0, parent, threading.get_ident()]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def observe(self, name: str, args, kwargs, result) -> None:
        """Counters that need a call's arguments or result."""
        if name == "chem.morgan_fingerprint":
            self._fingerprinted.add(hash(args[0]))
        elif name == "bioseq.percent_identity":
            a, b = args[0], args[1]
            self._pairs.add(hash((a.residues, b.residues)))
            self.add("bioseq.cells", len(a.residues) * len(b.residues))
        elif name == "corpus.load_table":
            self.add("corpus.load_table.rows", len(result.records))
            self.add("corpus.load_table.dropped", result.dropped)
        elif name == "promptgen.fit_length_budget":
            shots = args[2] if len(args) > 2 else kwargs.get("shots", ())
            self.add("promptgen.emitted", 1)
            self.add("promptgen.shots_trimmed", len(shots) - len(result.shot_ids))
        elif name == "analysis.contamination_scan":
            features = args[0]
            limit = kwargs.get("max_chars", args[2] if len(args) > 2 else 512)
            patterns = {v[:limit] for _, values in features for v in values if v[:limit]}
            self.add("analysis.contamination_scan.patterns", len(patterns))

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens on each next(); one span per item.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(index)
                    tracer.add(f"{name}.items")
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
            tracer.observe(name, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, wall_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "wall_s": wall_s,
                    "main_thread": threading.main_thread().ident,
                    "counters": {
                        **self.counters,
                        "chem.fingerprint_distinct": len(self._fingerprinted),
                        "bioseq.distinct_pairs": len(self._pairs),
                    },
                    "spans": self.spans,
                },
                fh,
            )


def _layer_functions() -> dict[int, tuple[str, object]]:
    """id(original function) -> (span name, function) for every public
    function of every layer, plus the names layers import from each other."""
    found: dict[int, tuple[str, object]] = {}
    modules = {layer: importlib.import_module(f"txf.{layer}") for layer in LAYER_MODULES}
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            value = getattr(module, attr)
            if inspect.isfunction(value):
                found[id(value)] = (f"{layer}.{attr}", value)
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if not inspect.isfunction(value) or attr.startswith("_"):
                continue
            parts = value.__module__.split(".")
            home = parts[1] if parts[0] == "txf" and len(parts) > 1 else None
            if home != layer and home in modules:
                found.setdefault(id(value), (f"{home}.{attr}", value))
    return found


def install(tracer: Tracer) -> None:
    """Replace each traced function in every loaded txf module."""
    import txf.cli  # noqa: F401 - load every module that imports a layer

    targets = _layer_functions()
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn) in targets.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name != "txf" and not module_name.startswith("txf."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    evalharness = sys.modules["txf.evalharness"]
    for class_name, span_name in CLIENT_METHODS.items():
        cls = getattr(evalharness, class_name)
        cls.generate = tracer.wrap(span_name, cls.generate)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run the txf CLI with layer tracing")
    parser.add_argument("--spans", required=True, help="write spans JSON here")
    parser.add_argument("txf_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    txf_args = args.txf_args[1:] if args.txf_args[:1] == ["--"] else args.txf_args
    started = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    from txf.cli import main as txf_main

    code = 1
    try:
        code = txf_main(txf_args)
    finally:
        tracer.dump(args.spans, time.perf_counter() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
