"""The llm_mock workload's model server, run in a child process.

The server runs in its own interpreter so that its request handling does not
share the client's interpreter lock. As a script it binds ``MockModelServer``
to an ephemeral localhost port with the trap-aware script, prints
``{"url": ...}`` when ready, answers every ``stats`` line on stdin with a
JSON line of counters, and on stdin EOF stops the server, prints its final
counters and exits (the protocol of child.py).
"""

from __future__ import annotations

import json
import sys

from child import ROOT, ChildProcess


class MockServerProcess(ChildProcess):
    """Parent-side handle of the child mock server."""

    script = ROOT / "bench" / "mock_child.py"

    @property
    def url(self) -> str:
        return self.ready["url"]

    def stats(self) -> dict:
        """Current counters: accepted connections and chat requests."""
        return self.ask("stats")


def _serve() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from apemo.mock_server import MockModelServer
    from workloads import trap_aware_script

    class CountingServer(MockModelServer):
        """Counts requests instead of keeping a transcript, and accepted connections."""

        def __init__(self) -> None:
            super().__init__(script=trap_aware_script)
            self.requests = 0
            self.connections = 0

        def record(self, body: dict) -> int:
            with self._lock:
                self.requests += 1
                return self.requests - 1

        def start(self) -> "CountingServer":
            super().start()
            httpd = self._httpd
            accept = httpd.process_request

            def counted(request, client_address):
                # serve_forever calls this once per accepted connection, on one thread
                self.connections += 1
                accept(request, client_address)

            httpd.process_request = counted
            return self

        def counters(self) -> dict:
            with self._lock:
                return {"requests": self.requests, "connections": self.connections}

    server = CountingServer().start()
    try:
        print(json.dumps({"url": server.url}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(server.counters()), flush=True)
    finally:
        server.stop()
    print(json.dumps(server.counters()), flush=True)


if __name__ == "__main__":
    _serve()
