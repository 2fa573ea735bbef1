"""In-process mock of the local chat-completion server.

Implements the same JSON dialect as the real server: POST /api/chat with
{model, messages, options{num_predict, ...}}, replying
{message{content}, prompt_eval_count, eval_count}. Completions are
truncated to num_predict whitespace tokens, with eval_count reporting the
truncated length, so cost accounting can be checked bit-exactly. Every
request body is recorded for transcript assertions. GET / answers the
preflight ping. The server speaks HTTP/1.1 with TCP_NODELAY, so a client
keeps one connection alive across calls; stop() shuts those connections
down, so a stopped server answers nothing.

Used by the test suite and handy for dry-running the run-llm command
without a live model.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

ScriptFn = Callable[[dict, int], str]

# How often serve_forever checks for shutdown; stop() waits up to this long.
_POLL_INTERVAL_S = 0.05


def default_script(body: dict, index: int) -> str:
    """Produce a plausible reply from the last user message.

    Critic-style prompts get a fixed good grade; other prompts get an
    answer that echoes the task keywords and ends cleanly.
    """
    messages = body.get("messages", [])
    system = next((m.get("content", "") for m in messages if m.get("role") == "system"), "")
    user = next(
        (m.get("content", "") for m in reversed(messages) if m.get("role") == "user"), ""
    )
    if "grade" in system.lower() or "critic" in system.lower():
        return "grade: 8"
    task_line = next(
        (line for line in user.splitlines() if line.lower().startswith("task:")), user
    )
    words = [w.strip(".,:;!?") for w in task_line.split()[1:] if len(w.strip(".,:;!?")) >= 4]
    focus = " ".join(dict.fromkeys(words)) or "the task"
    return f"Step {index + 1}: address {focus} with a concrete checklist and verify results."


class _Handler(BaseHTTPRequestHandler):
    server_version = "MockModelServer/1.0"
    protocol_version = "HTTP/1.1"
    # headers and body go out as two writes; without TCP_NODELAY, Nagle holds
    # the body until the client's delayed ACK (~40 ms per kept-alive call)
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args) -> None:  # silence request logging
        pass

    def setup(self) -> None:
        super().setup()
        self.server.owner.connected(self.connection)  # type: ignore[attr-defined]

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.owner.disconnected(self.connection)  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        body = b"mock model server is running"
        self.send_response(200)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:
        owner: "MockModelServer" = self.server.owner  # type: ignore[attr-defined]
        if self.path != "/api/chat":
            self.send_error(404, "unknown path")
            return
        length = int(self.headers.get("Content-Length", "0"))
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self.send_error(400, "bad json")
            return
        index = owner.record(body)
        behavior = owner.behavior_for(index)
        if behavior == "error":
            self.send_error(500, "injected failure")
            return
        if behavior == "garbage":
            payload = b"{not json"
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return

        payload = json.dumps(owner.reply(body, index)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


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
        self._httpd: Optional[ThreadingHTTPServer] = None
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
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
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
