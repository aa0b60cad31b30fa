"""The HTTP/1.1 model client.

``HttpModelClient`` POSTs the generation contract of ``txf.evalharness`` to
one endpoint and reads the reply straight off the socket. Only HTTP
evaluation loads this module: ``txf evaluate --stub`` never does.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.parse

from .evalharness import MAX_TOKENS, TEMPERATURE, GenerationResponse, TransportError

__all__ = ["HttpModelClient", "MAX_REPLY_BYTES"]


# Caps on one HTTP reply. The body may carry keys the harness ignores beside
# the completion, so it gets 2 KiB per requested token (1 MiB).
MAX_REPLY_BYTES = MAX_TOKENS * 2048
_MAX_LINE = 8192  # a status, header, chunk-size or trailer line
_MAX_FIELDS = 100  # header lines of one reply, or trailer lines
_RECV_SIZE = 65536


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
