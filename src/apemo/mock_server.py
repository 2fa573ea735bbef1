"""In-process mock of the local chat-completion server.

Implements the same JSON dialect as the real server: POST /api/chat with
{model, messages, options{num_predict, ...}}, replying
{message{content}, prompt_eval_count, eval_count}. Completions are
truncated to num_predict whitespace tokens, with eval_count reporting the
truncated length, so cost accounting can be checked bit-exactly. Every
request body is recorded for transcript assertions. GET / answers the
preflight ping.

The server speaks a lean HTTP/1.1 over socketserver: the request line and
headers are read in one pass into a lower-cased mapping, of which only
Content-Length and Connection are honoured, and every reply goes out in
one write (status line, Content-Type, Content-Length, blank line, body).
A connection is kept alive across requests unless the request is HTTP/1.0
or asks for Connection: close, or the reply is an error. A malformed
request line, a header line over 64 KiB or more than 100 header lines is
answered with a 4xx and the connection closed. Not supported: Expect:
100-continue (no interim reply is sent) and chunked request bodies (a
request body is read by Content-Length only). stop() shuts the kept-alive
connections down, so a stopped server answers nothing.

Used by the test suite and handy for dry-running the run-llm command
without a live model.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from http import HTTPStatus
from typing import Callable, Optional

ScriptFn = Callable[[dict, int], str]

# How often serve_forever checks for shutdown; stop() waits up to this long.
_POLL_INTERVAL_S = 0.05


def default_script(body: dict, index: int) -> str:
    """Produce a plausible reply from the last user message: an answer that
    echoes the task keywords and ends cleanly, whatever the role."""
    messages = body.get("messages", [])
    user = next(
        (m.get("content", "") for m in reversed(messages) if m.get("role") == "user"), ""
    )
    task_line = next(
        (line for line in user.splitlines() if line.lower().startswith("task:")), user
    )
    words = [w.strip(".,:;!?") for w in task_line.split()[1:] if len(w.strip(".,:;!?")) >= 4]
    focus = " ".join(dict.fromkeys(words)) or "the task"
    return f"Step {index + 1}: address {focus} with a concrete checklist and verify results."


# Caps on the request line and each header line, and on the header lines of
# one request, as in http.server.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _Handler(socketserver.StreamRequestHandler):
    """One client connection, served request by request until it closes.

    A reply is one write, so Nagle's algorithm could only hold back the tail
    of a reply longer than one segment, until the client's delayed ACK
    (about 40 ms); TCP_NODELAY keeps even that from waiting.
    """

    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.owner.connected(self.connection)  # type: ignore[attr-defined]

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.owner.disconnected(self.connection)  # type: ignore[attr-defined]

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read one request and answer it; close_connection says whether it was the last."""
        try:
            if not self.parse_request():
                return
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                self.send_error(501, f"unsupported method {self.command!r}")
                return
            method()
        except (ConnectionResetError, BrokenPipeError):
            # the client, or stop(), closed the connection under this thread
            self.close_connection = True

    def parse_request(self) -> bool:
        """Read the request line and headers in one pass.

        Sets command, path, content_length and close_connection, and returns
        True when there is a request to answer. At the end of the connection
        it returns False; for a malformed request it answers with a 4xx, marks
        the connection to close and returns False.
        """
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            self.close_connection = True
            return False
        if len(line) > _MAX_LINE:
            self.send_error(414, "request line too long")
            return False
        words = str(line, "iso-8859-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
            self.send_error(400, "bad request line")
            return False
        fields: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "header line too long")
                return False
            if line in (b"\r\n", b"\n"):
                break
            if not line:  # the client closed before the end of the headers
                self.close_connection = True
                return False
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon:
                self.send_error(400, "bad header line")
                return False
            name = name.strip().lower()
            value = value.strip()
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
        else:
            self.send_error(431, f"more than {_MAX_HEADERS} header lines")
            return False
        length = fields.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            self.send_error(400, "bad Content-Length")
            return False
        self.command, self.path, version = words
        self.content_length = int(length)
        self.close_connection = version == "HTTP/1.0" or any(
            token.strip() == "close" for token in fields.get("connection", "").lower().split(",")
        )
        return True

    def send_reply(self, code: int, content_type: str, body: bytes) -> None:
        """Status line, Content-Type, Content-Length, blank line and body, in one write.

        Connection: close is added when the connection ends after this reply.
        """
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\nContent-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n{close}\r\n")
        self.wfile.write(head.encode() + body)

    def send_error(self, code: int, message: str) -> None:
        """An error reply with a plain-text body, after which the connection closes."""
        self.close_connection = True
        self.send_reply(code, "text/plain", message.encode())

    def do_GET(self) -> None:
        self.send_reply(200, "text/plain", b"mock model server is running")

    def do_POST(self) -> None:
        owner: "MockModelServer" = self.server.owner  # type: ignore[attr-defined]
        if self.path != "/api/chat":
            self.send_error(404, "unknown path")
            return
        data = self.rfile.read(self.content_length)
        if len(data) < self.content_length:  # the client closed in the middle of the body
            self.close_connection = True
            return
        try:
            body = json.loads(data.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError included
            self.send_error(400, "bad json")
            return
        index = owner.record(body)
        behavior = owner.behavior_for(index)
        if behavior == "error":
            self.send_error(500, "injected failure")
        elif behavior == "garbage":
            self.send_reply(200, "application/json", b"{not json")
        else:
            self.send_reply(200, "application/json",
                            json.dumps(owner.reply(body, index)).encode("utf-8"))


class _Server(socketserver.ThreadingTCPServer):
    """One daemon thread per connection; stop() ends the kept-alive ones."""

    daemon_threads = True


def _shut(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already closed by the peer
        pass


class MockModelServer:
    """Scriptable chat-completion server bound to an ephemeral localhost port."""

    def __init__(
        self,
        script: Optional[ScriptFn] = None,
        fail_requests: Optional[set[int]] = None,
        garbage_requests: Optional[set[int]] = None,
    ):
        self.script: ScriptFn = script or default_script
        self.fail_requests = fail_requests or set()
        self.garbage_requests = garbage_requests or set()
        self.transcript: list[dict] = []
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._stopping = False
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise RuntimeError("server not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def record(self, body: dict) -> int:
        with self._lock:
            self.transcript.append(body)
            return len(self.transcript) - 1

    def reply(self, body: dict, index: int) -> dict:
        """Response body: the script's text cut to num_predict whitespace tokens."""
        text = self.script(body, index)
        cap = int(body.get("options", {}).get("num_predict", 10**9))
        words = text.split()
        if len(words) > cap:
            words = words[:cap]
        prompt_tokens = sum(len(m.get("content", "").split()) for m in body.get("messages", []))
        return {
            "model": body.get("model", ""),
            "message": {"role": "assistant", "content": " ".join(words)},
            "done": True,
            "prompt_eval_count": prompt_tokens,
            "eval_count": len(words),
        }

    def connected(self, sock: socket.socket) -> None:
        """Track an accepted connection; one accepted as stop() runs is shut at once."""
        with self._lock:
            if self._stopping:
                _shut(sock)
            else:
                self._connections.add(sock)

    def disconnected(self, sock: socket.socket) -> None:
        with self._lock:
            self._connections.discard(sock)

    def behavior_for(self, index: int) -> str:
        if index in self.fail_requests:
            return "error"
        if index in self.garbage_requests:
            return "garbage"
        return "ok"

    def start(self) -> "MockModelServer":
        self._stopping = False
        self._httpd = _Server(("127.0.0.1", 0), _Handler)
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _POLL_INTERVAL_S},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            # handler threads are daemons that server_close does not join; on a
            # kept-alive connection they would go on serving
            with self._lock:
                self._stopping = True
                for sock in self._connections:
                    _shut(sock)
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MockModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
