"""Model clients, answer parsing, and evaluation metrics.

The model boundary is a single generate(prompt) call. Over HTTP/1.1 it is a JSON
POST {"prompt", "max_tokens": MAX_TOKENS, "temperature": TEMPERATURE}
answered by {"text", "option_scores"?}; other response keys are ignored.
The built-in stubs speak the same interface in process. Metrics are computed
over every test record: unparseable or failed completions contribute fallback
predictions and an invalid rate, so n stays constant across models.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Protocol, Sequence

from .atomic import write_atomically
from .corpus import TaskManifest
from .promptgen import (
    ANSWER_NEGATIVE,
    ANSWER_POSITIVE,
    BIN_LEVELS,
    BinningSpec,
    NeighborIndex,
    PromptRecord,
    render_target,
    unbin_label,
)
from .ranks import _floats, average_ranks, lower_is_better_for

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
# Caps on one HTTP reply. The body may carry keys the harness ignores beside
# the completion, so it gets 2 KiB per requested token (1 MiB).
MAX_REPLY_BYTES = MAX_TOKENS * 2048
_MAX_LINE = 8192  # a status, header, chunk-size or trailer line
_MAX_FIELDS = 100  # header lines of one reply, or trailer lines
_RECV_SIZE = 65536


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    option_scores: dict[str, float] | None = None
    latency: float = 0.0


class TransportError(RuntimeError):
    """The endpoint could not be reached after retries."""


class ModelClient(Protocol):
    def generate(self, prompt: str) -> GenerationResponse: ...


class HttpModelClient:
    """POSTs the generation contract to a single endpoint over HTTP/1.1,
    with retries.

    This client owns the URL checks, the idle connections and the retry
    policy; each ``_Connection`` carries the requests sent on it, one whole
    exchange at a time. ``timeout`` seconds from an attempt's start bound its
    connect, its send and every receive together.

    Connections are kept alive and reused: ``generate`` takes an idle one
    (or opens one) and puts it back once the whole reply is read, when the
    reply allows it, so no more connections are open than the most calls
    ever in flight at once (``evaluate_task``'s concurrency). A kept-alive
    connection that the server has closed is retried at once on a new one.
    Connection failures, timeouts, broken framing and 5xx responses are
    retried on a new connection with capped exponential backoff; a reply over
    a cap, other non-2xx responses (redirects included) and bodies off the
    wire contract are an immediate error. Proxy variables are not read; HTTPS
    verifies against the system trust store. Use as a context manager, or
    call ``close``.
    """

    def __init__(self, url: str, timeout: float = 60.0, max_attempts: int = 4, backoff: float = 0.25):
        parts = urllib.parse.urlsplit(url)
        try:
            port = parts.port
        except ValueError:  # not a number, or out of range
            port = 0
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        if (
            parts.scheme not in ("http", "https")
            or not parts.hostname
            or port == 0
            or parts.username is not None  # credentials would be dropped
            or not _fits_the_request(parts.hostname, parts.netloc + target)
        ):
            raise ValueError(f"bad model URL {url!r}: expected http(s)://host[:port]/path")
        self.url = url
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self._address = (parts.hostname, port or (443 if parts.scheme == "https" else 80))
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {parts.netloc}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self._tls = None
        if parts.scheme == "https":
            import ssl  # here, so only an https:// URL pays for it

            self._tls = ssl.create_default_context()
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []

    def __enter__(self) -> "HttpModelClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Closes the idle connections; a later ``generate`` opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.sock.close()

    def generate(self, prompt: str) -> GenerationResponse:
        body = json.dumps(
            {"prompt": prompt, "max_tokens": MAX_TOKENS, "temperature": TEMPERATURE}
        ).encode("utf-8")
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        last = None
        for attempt in range(self.max_attempts):
            started = time.monotonic()
            try:
                status, data = self._post(request, fresh=attempt > 0, deadline=started + self.timeout)
            except OSError as exc:  # timeouts and broken framing too
                last = str(exc) or type(exc).__name__
            except TransportError as exc:  # a reply over a cap
                raise TransportError(f"{self.url}: {exc}") from None
            else:
                if status >= 500:
                    last = f"HTTP {status}"
                elif not 200 <= status < 300:
                    raise TransportError(f"{self.url}: HTTP {status}")
                else:
                    try:
                        text, scores = _wire_response(json.loads(data))
                    except (ValueError, OverflowError, RecursionError) as exc:
                        raise TransportError(f"{self.url}: bad JSON response: {exc}") from exc
                    return GenerationResponse(
                        text=text, option_scores=scores, latency=time.monotonic() - started,
                    )
            if attempt + 1 < self.max_attempts:
                time.sleep(min(self.backoff * (2**attempt), 4.0))
        raise TransportError(f"{self.url}: unreachable after {self.max_attempts} attempts ({last})")

    def _post(self, request: bytes, fresh: bool, deadline: float) -> tuple[int, bytes]:
        """Status and body of one POST, on an idle connection unless
        ``fresh``. An idle connection that the server closed while it sat
        idle is replaced at once by a new one, without using up an attempt.
        The connection goes back to the idle stack when the reply lets it
        carry another request."""
        with self._lock:
            conn = self._idle.pop() if self._idle and not fresh else None
        reply = conn.exchange(request, deadline) if conn is not None else None
        if reply is None:
            conn = _Connection(self._address, self._tls, deadline)
            reply = conn.exchange(request, deadline)
        status, data, reusable = reply
        if reusable:
            with self._lock:
                self._idle.append(conn)
        return status, data


def _fits_the_request(host: str, text: str) -> bool:
    """Whether ``text``, the URL's host and target, can go on the request's
    lines as it is, and ``host`` can be looked up: IDNA allows a label of
    at most 63 characters."""
    if not (text.isascii() and text.isprintable()) or " " in text:
        return False
    try:
        host.encode("idna")
    except UnicodeError:
        return False
    return True


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _Connection:
    """One HTTP/1.1 connection: its socket, opened by the constructor (TLS
    when ``tls`` is an ``ssl.SSLContext``), and the bytes received on it but
    not yet read. Each ``exchange`` sends one request with one ``sendall``
    and reads its reply, whose body is framed by Content-Length, by chunked
    encoding or by the server closing the connection. Every connect, send
    and receive waits at most until the deadline (on the ``time.monotonic``
    clock); a wait past it raises TimeoutError.

    Broken framing, or a close before the reply ends, raises ConnectionError
    (an OSError, so the client retries it); a reply over a cap
    (``MAX_REPLY_BYTES`` of body, ``_MAX_LINE`` bytes of one line,
    ``_MAX_FIELDS`` header lines) raises TransportError. The socket is
    closed on every failure.
    """

    def __init__(self, address: tuple[str, int], tls, deadline: float):
        import socket  # here, so only HTTP evaluation pays for it

        sock = socket.create_connection(address, timeout=_time_left(deadline))
        try:
            # A request longer than one segment leaves in several; under
            # Nagle's algorithm the last would wait for the server's delayed
            # ACK of the ones before it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tls is not None:
                sock = tls.wrap_socket(sock, server_hostname=address[0])
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self._reused = False  # True once a reply has left it open for another request
        self._buf = bytearray()
        self._recv_view = memoryview(bytearray(_RECV_SIZE))

    def exchange(self, request: bytes, deadline: float) -> tuple[int, bytes, bool] | None:
        """Sends ``request`` and reads the first reply that is not 1xx: its
        status, its body (RFC 9112 section 6.3), and whether the connection
        can carry another request; if not, the socket is closed.

        None, with the socket closed, when the connection has carried a
        request before and the server closed or reset it while the request
        was sent or the reply's head read, as a server does to a connection
        that sat idle. On a new connection that error is raised as it is."""
        import socket  # loaded by __init__, so only looked up here

        self._deadline = deadline
        try:
            try:
                self.sock.settimeout(_time_left(deadline))
                self.sock.sendall(request)
                if hasattr(socket, "TCP_QUICKACK"):  # Linux only
                    # A server that writes the reply's headers and body apart
                    # with Nagle's algorithm on sends the body only once we
                    # ACK the headers; on a kept-alive connection Linux
                    # delays that ACK by up to 40 ms.
                    self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                if not self._buf and not self._fill():
                    raise ConnectionResetError("the server closed the connection without replying")
                while True:
                    line = self._readline("status line")
                    version, _, rest = line.partition(b" ")
                    code = rest[:3]
                    if not (
                        version in (b"HTTP/1.0", b"HTTP/1.1")
                        and len(code) == 3 and code.isdigit() and rest[3:4] in (b"", b" ")
                    ):
                        raise ConnectionError(f"bad status line {line[:80]!r}")
                    fields = self._read_fields()
                    if code[0] != ord("1"):
                        break
            except (ConnectionResetError, BrokenPipeError):
                if not self._reused:
                    raise
                self.sock.close()
                return None
            status = int(code)
            tokens = {t.strip() for value in fields.get(b"connection", ()) for t in value.lower().split(b",")}
            reusable = b"keep-alive" in tokens if version == b"HTTP/1.0" else b"close" not in tokens
            codings = [t.strip() for value in fields.get(b"transfer-encoding", ()) for t in value.lower().split(b",")]
            lengths = set(fields.get(b"content-length", ()))
            if status in (204, 304):
                body = b""
            elif codings and codings[-1] == b"chunked":
                body = self._read_chunked()
                # Content-Length beside chunked is a sign of a broken relay.
                reusable = reusable and not lengths
            elif codings or not lengths:
                body, reusable = self._read_to_close(), False
            else:
                length = lengths.pop() if len(lengths) == 1 else b""
                if not length.isdigit():
                    raise ConnectionError(f"bad Content-Length {b', '.join(fields[b'content-length'])[:80]!r}")
                if len(length) > len(str(MAX_REPLY_BYTES)) or int(length) > MAX_REPLY_BYTES:
                    raise TransportError(f"reply declares a body over the {MAX_REPLY_BYTES}-byte cap")
                body = self._read(int(length))
        except BaseException:
            self.sock.close()
            raise
        # Bytes past the body would be read as the next reply; a 5xx reply's
        # retry goes to a new connection, and this one is dropped.
        self._reused = reusable and not self._buf and status < 500
        if not self._reused:
            self.sock.close()
        return status, body, self._reused

    def _fill(self) -> bool:
        """Receives more bytes into the buffer; False once the server has
        closed the connection."""
        self.sock.settimeout(_time_left(self._deadline))
        n = self.sock.recv_into(self._recv_view)
        self._buf += self._recv_view[:n]
        return n > 0

    def _readline(self, what: str) -> bytes:
        """The next line, without its CRLF or bare LF."""
        start = 0
        while (end := self._buf.find(b"\n", start)) < 0:
            if len(self._buf) > _MAX_LINE:
                raise TransportError(f"reply has a {what} over the {_MAX_LINE}-byte cap")
            start = len(self._buf)
            if not self._fill():
                raise ConnectionError(f"the server closed the connection inside a {what}")
        if end > _MAX_LINE:
            raise TransportError(f"reply has a {what} over the {_MAX_LINE}-byte cap")
        line = bytes(self._buf[:end])
        del self._buf[: end + 1]
        return line[:-1] if line.endswith(b"\r") else line

    def _read_fields(self) -> dict[bytes, list[bytes]]:
        """Header (or trailer) fields up to the empty line, by lower-case
        name; a line without a colon is ignored."""
        fields: dict[bytes, list[bytes]] = {}
        for _ in range(_MAX_FIELDS + 1):
            line = self._readline("header line")
            if not line:
                return fields
            name, colon, value = line.partition(b":")
            if colon:
                fields.setdefault(name.strip().lower(), []).append(value.strip())
        raise TransportError(f"reply has over {_MAX_FIELDS} header lines")

    def _read(self, n: int) -> bytes:
        while len(self._buf) < n:
            if not self._fill():
                raise ConnectionError(f"the server closed the connection {n - len(self._buf)} bytes before the body's end")
        data = bytes(self._buf[:n])
        del self._buf[:n]
        return data

    def _read_chunked(self) -> bytes:
        body = bytearray()
        while True:
            # A chunk extension may follow the size, after a semicolon.
            digits = self._readline("chunk-size line").partition(b";")[0].strip()
            if not digits or digits.strip(b"0123456789abcdefABCDEF"):
                raise ConnectionError(f"bad chunk size {digits[:80]!r}")
            size = int(digits, 16)
            if len(body) + size > MAX_REPLY_BYTES:
                raise TransportError(f"reply body over the {MAX_REPLY_BYTES}-byte cap")
            if size == 0:
                self._read_fields()  # the trailer section, ignored
                return bytes(body)
            body += self._read(size)
            if self._readline("chunk") != b"":
                raise ConnectionError("chunk data does not end at its size")

    def _read_to_close(self) -> bytes:
        while len(self._buf) <= MAX_REPLY_BYTES and self._fill():
            pass
        if len(self._buf) > MAX_REPLY_BYTES:
            raise TransportError(f"reply body over the {MAX_REPLY_BYTES}-byte cap")
        data = bytes(self._buf)
        self._buf.clear()
        return data


def _wire_response(payload) -> tuple[str, dict[str, float] | None]:
    """Text and option scores of a response body; ValueError when the body
    breaks the wire contract."""
    if not isinstance(payload, dict):
        raise ValueError("not a JSON object")
    text = payload.get("text", "")
    if not isinstance(text, str):
        raise ValueError("text is not a string")
    scores = payload.get("option_scores")
    if not scores:
        return text, None
    if not isinstance(scores, dict) or not all(
        isinstance(v, (int, float, str)) for v in scores.values()
    ):
        raise ValueError("option_scores is not an object of numbers")
    # Numeric strings stay accepted, as float() always read them; any other
    # string makes float() raise ValueError, a bad response too.
    values = {str(k): float(v) for k, v in scores.items()}
    # json.loads reads bare NaN and Infinity, and float() reads "nan" and
    # "inf"; either would corrupt the AUROC ranks.
    if not all(math.isfinite(v) for v in values.values()):
        raise ValueError("option_scores holds a non-finite number")
    return text, values


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


def parse_regression_answer(completion: str, spec: BinningSpec) -> tuple[float, bool]:
    """First integer token, clamped to the bin range and unbinned.

    Unparseable output falls back to the midpoint bin so n stays constant;
    callers report the invalid rate alongside the metric.
    """
    match = _INT.search(completion)
    if match is None:
        return unbin_label(BIN_LEVELS // 2, spec), False
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
    return unbin_label(b, spec), True


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


@dataclass
class EvalRow:
    record_id: str
    subtask: str | None
    target: str
    completion: str
    prediction: object
    truth: object
    score: float
    valid: bool
    failure: str | None = None  # the transport error's text


@dataclass
class EvalResult:
    """A task's metric over its rows: value, subtask_values and undefined_reason
    are scored when the result is made; n, invalid_rate and failures are read
    from the rows on each access."""

    task_id: str
    metric: str
    rows: list[EvalRow]
    value: float | None = field(init=False)
    subtask_values: dict[str, float | None] | None = field(init=False)
    undefined_reason: str | None = field(init=False)

    def __post_init__(self) -> None:
        self.value, self.subtask_values, self.undefined_reason = score_rows(self.metric, self.rows)

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
        spec = BinningSpec.from_manifest(manifest)
        truth = unbin_label(min(int(prompt.target), BIN_LEVELS), spec)
        prediction, valid = parse_regression_answer(completion, spec)
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

    Requests run concurrently up to the limit but results are reduced in
    input order, so the output is identical for any concurrency setting.
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

    def call(prompt: PromptRecord):
        try:
            return client.generate(prompt.prompt), None
        except TransportError as exc:
            return None, str(exc)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outcomes = list(pool.map(call, prompts))

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
