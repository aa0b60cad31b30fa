"""Loopback HTTP servers for the model client tests."""

import contextlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@contextlib.contextmanager
def serving(server):
    """Serves on a background thread until the block ends."""
    # A short poll interval keeps shutdown() quick.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """An HTTP/1.1 model that keeps connections open. A prompt "STATUS <n>"
    gets that status and an empty body."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # so teardown never waits long on a connection left open

    def setup(self):
        # Headers and body go out in two writes; with Nagle's algorithm on,
        # the body waits until the client ACKs the headers.
        self.disable_nagle_algorithm = not self.server.nagle
        super().setup()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.prompts.append(body["prompt"])
        status, raw = 200, b'{"text": "(B)"}'
        if body["prompt"].startswith("STATUS "):
            status, raw = int(body["prompt"].split()[1]), b""
        self.send_response(status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)
        # Closes the socket after the reply without a "Connection: close"
        # header, as a server that drops idle keep-alive connections does.
        self.close_connection = self.server.close_after_reply

    def log_message(self, *args):
        pass


class _RawReplyHandler(_KeepAliveHandler):
    """Writes the server's raw reply pieces in place of a reply of its own."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.prompts.append(body["prompt"])
        for i, piece in enumerate(self.server.pieces):
            if i:
                time.sleep(self.server.pause)
            try:
                self.wfile.write(piece)
            except OSError:  # the client gave up on the reply and closed
                break
        self.close_connection = self.server.close_after_reply


class CountingServer(ThreadingHTTPServer):
    """Counts the connections it accepts and records each prompt it answers."""

    daemon_threads = False  # server_close joins the handler threads
    handler = _KeepAliveHandler

    def __init__(self, close_after_reply=False, nagle=False):
        super().__init__(("127.0.0.1", 0), self.handler)
        self.close_after_reply = close_after_reply
        self.nagle = nagle
        self.connections = 0
        self.prompts = []

    def process_request(self, request, client_address):
        self.connections += 1  # runs in the serving thread, one at a time
        super().process_request(request, client_address)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_port}/generate"


class RawReplyServer(CountingServer):
    """Answers every POST with ``pieces``, raw bytes written in turn with
    ``pause`` seconds between them, then closes the connection if
    ``close_after_reply``; otherwise it waits for the next request on it."""

    handler = _RawReplyHandler

    def __init__(self, *pieces, pause=0.0, close_after_reply=False):
        super().__init__(close_after_reply=close_after_reply)
        self.pieces = pieces
        self.pause = pause

    def handle_error(self, request, client_address):
        # A client that gives up on a reply resets the connection.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)
