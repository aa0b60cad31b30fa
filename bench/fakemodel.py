"""Deterministic fake model server on loopback, stdlib only.

Run as its own process:

    python3 bench/fakemodel.py --answers answers.json

It prints ``listening <port>`` once it accepts connections, answers
``POST /generate`` with the model wire contract, serves its request counters
at ``GET /stats``, and exits when its standard input closes, printing the
final counters as one JSON line.

Every answer is a pure function of the prompt text (see ``plan``), so the
benchmark can predict each answer without asking the server.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Reaction prompts: below CORRECT the answer is right, below WRONG it is a
# valid but wrong reactant set, otherwise it does not parse as SMILES.
CORRECT = 0.6
WRONG = 0.85
# Binary prompts: this share of answers carries no (A)/(B) token.
BINARY_UNPARSEABLE = 0.1

_PRODUCT = re.compile(r"^Product SMILES: (.*)$", re.MULTILINE)


def _unit(prompt: str, salt: str) -> float:
    digest = hashlib.sha256((salt + prompt).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / 2.0**64


def plan(prompt: str, answers: dict[str, list[str]]) -> tuple[str, dict]:
    """(kind, response payload) for one prompt.

    kind is "correct", "wrong" or "unparseable" for reaction prompts and
    "binary" or "binary_unparseable" for the rest.
    """
    products = _PRODUCT.findall(prompt)
    u = _unit(prompt, "answer")
    if products:
        mapped = answers[products[-1]]
        if u < CORRECT:
            # Same reactants, atom-mapped and in another order.
            return "correct", {"text": ".".join(reversed(mapped))}
        if u < WRONG:
            return "wrong", {"text": mapped[-1]}
        return "unparseable", {"text": "I cannot determine the reactants."}
    score = _unit(prompt, "score")
    scores = {"(A)": 1.0 - score, "(B)": score}
    if u < BINARY_UNPARSEABLE:
        return "binary_unparseable", {"text": "I am not sure.", "option_scores": scores}
    text = "(B)" if score >= 0.5 else "(A)"
    return "binary", {"text": text, "option_scores": scores}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        self._reply(200, self.server.snapshot())

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        request = json.loads(self.rfile.read(length))
        kind, payload = plan(request["prompt"], self.server.answers)
        self.server.count(kind)
        self._reply(200, payload)


class FakeModelServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, answers: dict[str, list[str]]):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answers = answers
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {"requests": 0}

    def count(self, kind: str) -> None:
        with self._lock:
            self._counts["requests"] += 1
            self._counts[kind] = self._counts.get(kind, 0) + 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--answers", required=True, help="JSON: product -> mapped reactants")
    args = parser.parse_args(argv)
    with open(args.answers, encoding="utf-8") as fh:
        answers = json.load(fh)
    server = FakeModelServer(answers)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"listening {server.server_address[1]}", flush=True)
    sys.stdin.read()  # returns when the parent closes our stdin
    server.shutdown()
    thread.join()
    server.server_close()
    print(json.dumps(server.snapshot()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
