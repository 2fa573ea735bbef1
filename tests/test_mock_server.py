"""Wire conformance of the mock server, checked over raw sockets, and its quiet stop()."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from apemo.llm import DecodingParams, ModelEndpoint, TransportError, chat_complete
from apemo.mock_server import MockModelServer

PING = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 28\r\n\r\nmock model server is running"
BODY = {"model": "m", "messages": [{"role": "user", "content": "Task: say hello"}],
        "options": {"num_predict": 10}}


def reply_script(body: dict, index: int) -> str:
    return f"reply number {index}."


class WriteCountingServer(MockModelServer):
    """Keeps every wfile.write its handlers make."""

    def start(self) -> "WriteCountingServer":
        super().start()
        self.writes: list[bytes] = []
        owner = self

        class Counted(self._httpd.RequestHandlerClass):
            def setup(self) -> None:
                super().setup()
                write = self.wfile.write

                def counted(data: bytes) -> int:
                    owner.writes.append(bytes(data))
                    return write(data)

                self.wfile.write = counted

        self._httpd.RequestHandlerClass = Counted
        return self


@pytest.fixture
def server():
    with WriteCountingServer(script=reply_script, garbage_requests={3}) as srv:
        yield srv


@pytest.fixture
def conn(server):
    sock = socket.create_connection(server._httpd.server_address[:2], timeout=5)
    reader = sock.makefile("rb")
    yield sock, reader
    reader.close()
    sock.close()


def request(head: str, *headers: str, body: bytes = b"") -> bytes:
    return "".join(f"{line}\r\n" for line in (head, *headers)).encode() + b"\r\n" + body


def chat(*headers: str, version: str = "HTTP/1.1", length_name: str = "Content-Length") -> bytes:
    data = json.dumps(BODY).encode()
    return request(f"POST /api/chat {version}", "Host: mock",
                   f"{length_name}: {len(data)}", *headers, body=data)


def chat_reply(server: MockModelServer, index: int, *extra: bytes) -> bytes:
    payload = json.dumps(server.reply(BODY, index)).encode()
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n%s\r\n%s" % (len(payload), b"".join(extra), payload))


def read_reply(reader) -> bytes:
    """One whole reply, its body read by Content-Length."""
    lines = [reader.readline()]
    length = 0
    while lines[-1] not in (b"\r\n", b""):
        lines.append(reader.readline())
        name, _, value = lines[-1].partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return b"".join(lines) + reader.read(length)


def test_chat_and_ping_replies_are_exact_and_one_write_each(server, conn):
    sock, reader = conn
    sock.sendall(chat())
    expected = chat_reply(server, 0)
    assert reader.read(len(expected)) == expected
    sock.sendall(request("GET / HTTP/1.1", "Host: mock"))
    assert reader.read(len(PING)) == PING
    assert server.writes == [expected, PING]


def test_keep_alive_across_three_requests_on_one_socket(server, conn):
    sock, reader = conn
    for index in range(3):
        sock.sendall(chat())
        assert read_reply(reader) == chat_reply(server, index)
    sock.sendall(chat())  # the garbage reply is one write too
    garbage = b"{not json"
    assert read_reply(reader) == (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                                  b"Content-Length: 9\r\n\r\n" + garbage)
    assert len(server.transcript) == 4
    assert len(server.writes) == 4


@pytest.mark.parametrize("message", [
    chat("Connection: close"),
    chat("Connection: keep-alive, Close"),
    chat(version="HTTP/1.0"),
], ids=["connection-close", "close-token", "http-1.0"])
def test_the_connection_closes_after_the_reply_when_asked(server, conn, message):
    sock, reader = conn
    sock.sendall(message)
    assert read_reply(reader) == chat_reply(server, 0, b"Connection: close\r\n")
    assert reader.read() == b""


def test_a_lower_case_content_length_is_honoured(server, conn):
    sock, reader = conn
    sock.sendall(chat(length_name="content-length") + chat(length_name="CONTENT-LENGTH"))
    assert read_reply(reader) == chat_reply(server, 0)
    assert read_reply(reader) == chat_reply(server, 1)
    assert server.transcript == [BODY, BODY]


@pytest.mark.parametrize("message, status", [
    (request("POST /api/other HTTP/1.1", "Content-Length: 2", body=b"{}"), b"404"),
    (request("GARBAGE"), b"400"),
    (request("GET /"), b"400"),
    (request("GET / HTTP/2.0"), b"400"),
    (request("GET / HTTP/1.1 extra"), b"400"),
    (request("GET / HTTP/1.1", "no colon here"), b"400"),
    (request("POST /api/chat HTTP/1.1", "Content-Length: -2"), b"400"),
    (request("POST /api/chat HTTP/1.1", "Content-Length: 2", "Content-Length: 3"),
     b"400"),
    (request("POST /api/chat HTTP/1.1", "Content-Length: 5", body=b"{bad}"), b"400"),
    (request("DELETE / HTTP/1.1"), b"501"),
    (request("GET /" + "a" * 65536 + " HTTP/1.1"), b"414"),
    (request("GET / HTTP/1.1", "X-Big: " + "a" * 65536), b"431"),
    (request("GET / HTTP/1.1", *[f"X-Pad-{i}: {i}" for i in range(101)]),
     b"431"),
], ids=["unknown-path", "request-line", "no-version", "version", "extra-word", "header-line",
        "negative-length", "two-lengths", "bad-json", "method", "long-request-line",
        "long-header-line", "101-headers"])
def test_a_bad_request_gets_an_error_status_then_the_connection_closes(server, conn, message,
                                                                      status):
    sock, reader = conn
    sock.sendall(message)
    reply = read_reply(reader)
    assert reply.startswith(b"HTTP/1.1 " + status + b" ")
    assert b"\r\nContent-Type: text/plain\r\n" in reply
    assert b"\r\nConnection: close\r\n\r\n" in reply
    assert reader.read() == b""
    assert server.writes == [reply]


def test_a_hundred_header_lines_are_accepted(server, conn):
    sock, reader = conn
    sock.sendall(request("GET / HTTP/1.1", *[f"X-Pad-{i}: {i}" for i in range(100)]))
    assert read_reply(reader) == PING


def endpoint_for(server: MockModelServer) -> ModelEndpoint:
    return ModelEndpoint(base_url=server.url, model_id="m", timeout=5.0, max_retries=0)


def call(endpoint: ModelEndpoint) -> None:
    chat_complete(endpoint, BODY["messages"], DecodingParams(), 10)


def join_new_threads(before: set[threading.Thread]) -> None:
    """Wait for the handler threads started since `before`, so all they print is captured."""
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_stop_under_kept_alive_connections_prints_nothing(capfd):
    before = set(threading.enumerate())
    for _ in range(10):
        server = MockModelServer().start()
        endpoint = endpoint_for(server)
        call(endpoint)  # leaves this thread's kept-alive connection open
        server.stop()
        with pytest.raises(TransportError):
            call(endpoint)  # written into the connection stop() shut down
    join_new_threads(before)
    assert capfd.readouterr().err == ""


def test_a_script_exception_still_reaches_stderr(capfd):
    def broken(body: dict, index: int) -> str:
        raise RuntimeError("the script broke")

    before = set(threading.enumerate())
    with MockModelServer(script=broken) as server:
        with pytest.raises(TransportError):
            call(endpoint_for(server))
    join_new_threads(before)
    assert "RuntimeError: the script broke" in capfd.readouterr().err
