"""Wire client, quality scoring, flow turns, and transcript conformance."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from apemo import llm
from apemo.abm import TrapSpec
from apemo.executor import ExecutorError, TurnContext
from apemo.llm import (
    DecodingParams,
    LlmExecutor,
    ModelEndpoint,
    ProtocolError,
    TransportError,
    chat_complete,
    heuristic_quality,
    ping,
)
from apemo.mock_server import MockModelServer, default_script
from apemo.scheduler import POLICY_TRAITS, PolicyKind, SchedulerConfig, run_trajectory

DECODING = DecodingParams(temperature=0.2, top_p=0.9)


def endpoint_for(server: MockModelServer, retries: int = 0) -> ModelEndpoint:
    return ModelEndpoint(
        base_url=server.url, model_id="test-model", timeout=5.0,
        max_retries=retries, backoff_base=0.01,
    )


def is_planner(body: dict) -> bool:
    return body["messages"][0]["content"].startswith("You are the planner.")


def test_chat_complete_echo_round_trip():
    with MockModelServer(script=lambda body, i: "fixed reply body here.") as server:
        result = chat_complete(
            endpoint_for(server),
            [{"role": "user", "content": "Task: say something"}],
            DECODING,
            token_cap=50,
        )
        assert result.text == "fixed reply body here."
        assert result.completion_tokens == 4
        assert result.prompt_tokens == 3


def test_chat_complete_respects_token_cap():
    with MockModelServer(script=lambda body, i: "one two three four five six") as server:
        result = chat_complete(
            endpoint_for(server),
            [{"role": "user", "content": "hi"}],
            DECODING,
            token_cap=1,
        )
        assert result.text == "one"
        assert result.completion_tokens == 1
        assert server.transcript[0]["options"]["num_predict"] == 1


def test_chat_complete_rejects_zero_cap():
    with MockModelServer() as server:
        with pytest.raises(ValueError):
            chat_complete(endpoint_for(server), [], DECODING, token_cap=0)


def test_server_down_raises_transport_error():
    endpoint = ModelEndpoint(
        base_url="http://127.0.0.1:9", model_id="m", timeout=0.2,
        max_retries=1, backoff_base=0.01,
    )
    with pytest.raises(TransportError):
        chat_complete(endpoint, [{"role": "user", "content": "x"}], DECODING, 10)
    with pytest.raises(TransportError):
        ping(endpoint)


def test_malformed_body_raises_protocol_error():
    with MockModelServer(garbage_requests={0}) as server:
        with pytest.raises(ProtocolError):
            chat_complete(endpoint_for(server), [{"role": "user", "content": "x"}], DECODING, 10)


def test_retries_recover_from_transient_500():
    with MockModelServer(fail_requests={0}) as server:
        result = chat_complete(
            endpoint_for(server, retries=2),
            [{"role": "user", "content": "Task: hello there"}],
            DECODING,
            token_cap=20,
        )
        assert result.completion_tokens > 0
        assert len(server.transcript) == 2


def test_heuristic_quality_empty_answer_is_zero():
    assert heuristic_quality("plan the route", "") == 0.0


def test_heuristic_quality_saturates():
    task = "plan the route and estimate cost"
    answer = "We plan a direct route today, estimate every cost, and verify the schedule carefully."
    assert heuristic_quality(task, answer) == pytest.approx(1.0)


def test_heuristic_quality_penalizes_truncation_and_repetition():
    task = "plan the route and estimate cost"
    clean = heuristic_quality(task, "Plan the route, estimate the cost carefully today.")
    truncated = heuristic_quality(task, "Plan the route, estimate the")
    repetitive = heuristic_quality(task, "loop loop loop loop loop loop loop loop.")
    assert truncated < clean
    assert repetitive < clean


FLOW_TASK = "plan the route and estimate cost"


def flow_turn(server: MockModelServer, allocated_tokens: int = 300, topology: str = "flow"):
    ctx = TurnContext(task=FLOW_TASK, turn=1, horizon=4)
    executor = LlmExecutor(endpoint_for(server), topology=topology)
    return executor.execute_turn(ctx, allocated_tokens, seed=5)


def test_critic_parse_failure_falls_back_to_heuristic():
    # a reply that reads like a grade is scored like any other answer: a flow
    # turn and a single turn given the same reply score the same
    reply = "grade: 2 because the plan wanders"
    with MockModelServer(script=lambda body, i: reply) as server:
        flow, single = flow_turn(server), flow_turn(server, topology="single")
    assert flow.text == single.text == reply
    assert flow.quality == single.quality == heuristic_quality(FLOW_TASK, reply)


def test_run_flow_turn_role_sequence_and_usage():
    with MockModelServer() as server:
        out = flow_turn(server, 1000)
        planner, executor = server.transcript
        assert is_planner(planner) and not is_planner(executor)
        caps = [b["options"]["num_predict"] for b in server.transcript]
        assert caps == [250, 750]
        assert out.text == server.script(executor, 1)
        assert out.quality == heuristic_quality(FLOW_TASK, out.text)
        reported = sum(min(cap, 10**9) for cap in caps)  # upper bound only
        assert 0 < out.tokens_used <= reported


@pytest.mark.parametrize("allocated", [1, 3, 4, 999, 1000])
def test_flow_turn_gives_the_planner_its_share_rounded_down(allocated):
    plan = int(allocated * 0.25)
    with MockModelServer() as server:
        flow_turn(server, allocated)
        caps = [b["options"]["num_predict"] for b in server.transcript]
        roles = ["planner" if is_planner(b) else "executor" for b in server.transcript]
    if plan == 0:  # a zero planner share is skipped
        assert (roles, caps) == (["executor"], [allocated])
    else:
        assert (roles, caps) == (["planner", "executor"], [plan, allocated - plan])


def test_flow_transport_error_propagates_for_fallback():
    endpoint = ModelEndpoint(
        base_url="http://127.0.0.1:9", model_id="m", timeout=0.2,
        max_retries=0, backoff_base=0.01,
    )
    ctx = TurnContext(task="plan", turn=1, horizon=2)
    with pytest.raises(ExecutorError):
        LlmExecutor(endpoint, topology="flow").execute_turn(ctx, 300, seed=1)


def test_executor_zero_allocation_runs_without_call():
    with MockModelServer() as server:
        executor = LlmExecutor(endpoint_for(server))
        out = executor.execute_turn(TurnContext(task="t", turn=1, horizon=2), 0, seed=1)
        assert out.tokens_used == 0
        assert out.quality == 0.0
        assert server.transcript == []


def test_executor_trap_injection_corrupts_prompt_once():
    with MockModelServer() as server:
        executor = LlmExecutor(endpoint_for(server), trap=TrapSpec(2, 0.4))
        executor.execute_turn(TurnContext(task="plan the route", turn=2, horizon=4), 100, seed=1)
        executor.execute_turn(
            TurnContext(task="plan the route", turn=2, horizon=4, attempt=1), 100, seed=1
        )
        first, retry = server.transcript
        assert "loop" in first["messages"][-1]["content"].lower()
        assert "loop" not in retry["messages"][-1]["content"].lower()


class RecordingExecutor:
    """Passes attempts through and keeps every outcome in order."""

    def __init__(self, inner):
        self.inner = inner
        self.outcomes = []

    def execute_turn(self, ctx, allocated_tokens, seed):
        out = self.inner.execute_turn(ctx, allocated_tokens, seed)
        self.outcomes.append(out)
        return out


def test_trapped_turn_scores_alike_under_apemo_and_flow_temporal():
    # one instrument: the same trapped answer scores the same on a single and
    # a flow turn, so flow_temporal detects and repairs the trap as apemo does
    loop = " ".join(["loop"] * 20)

    def script(body: dict, index: int) -> str:
        trapped = llm._TRAP_NOTE in body["messages"][-1]["content"]
        return loop if trapped else default_script(body, index)

    trap = TrapSpec(trap_turn=2, severity=0.4)
    cfg = SchedulerConfig(task=FLOW_TASK)
    for policy, topology in ((PolicyKind.APEMO, "single"), (PolicyKind.FLOW_TEMPORAL, "flow")):
        with MockModelServer(script=script) as server:
            executor = RecordingExecutor(
                LlmExecutor(endpoint_for(server), topology=topology, trap=trap)
            )
            traj = run_trajectory(POLICY_TRAITS[policy], executor, 4, 2400, seed=3, cfg=cfg)
        (trapped,) = [out for out in executor.outcomes if out.trapped]
        assert trapped.text == loop
        assert trapped.quality == heuristic_quality(FLOW_TASK, loop)
        turn = traj.turns[trap.trap_turn - 1]
        assert turn.trapped and turn.repaired
        assert turn.quality > trapped.quality


def test_plan_execute_wire_roles():
    # turn 1's first call plans at the full allocation; every later turn is
    # one assistant call
    horizon, cap = 3, 400
    with MockModelServer() as server:
        executor = LlmExecutor(endpoint_for(server), topology="plan_execute")
        traj = run_trajectory(POLICY_TRAITS[PolicyKind.PLAN_EXECUTE], executor, horizon, cap, seed=5,
                              cfg=SchedulerConfig(task="plan the route", monitor_overhead=0))
        planner, *others = server.transcript
    base = cap // horizon
    assert is_planner(planner)
    assert planner["options"]["num_predict"] == base
    assert len(others) == horizon - 1
    for turn, body in enumerate(others, start=2):
        assert body["messages"][0]["content"].startswith("You are a careful assistant")
        assert body["options"]["num_predict"] == base
        assert f"This is turn {turn} of {horizon}." in body["messages"][-1]["content"]
    # the plan is the first turn's answer, carried forward without a note
    plan = server.script(planner, 0)
    assert f"- {plan}\n" in others[0]["messages"][-1]["content"]
    assert traj.turns[0].tokens_spent == len(plan.split())


class OverReportingServer(MockModelServer):
    """Reports `num_predict + 5` completion tokens on the chosen requests."""

    def __init__(self, over_requests, **kwargs):
        super().__init__(**kwargs)
        self.over_requests = set(over_requests)

    def reply(self, body: dict, index: int) -> dict:
        payload = super().reply(body, index)
        if index in self.over_requests:
            payload["eval_count"] = body["options"]["num_predict"] + 5
        return payload


def test_chat_complete_rejects_eval_count_above_cap():
    with OverReportingServer({0}) as server:
        with pytest.raises(ProtocolError, match="above num_predict"):
            chat_complete(endpoint_for(server), [{"role": "user", "content": "x"}], DECODING, 10)


def test_chat_complete_rejects_negative_counts():
    class NegativeServer(MockModelServer):
        def reply(self, body, index):
            payload = super().reply(body, index)
            payload["prompt_eval_count" if index == 0 else "eval_count"] = -1
            return payload

    with NegativeServer() as server:
        for _ in range(2):
            with pytest.raises(ProtocolError, match="negative"):
                chat_complete(endpoint_for(server), [{"role": "user", "content": "x"}],
                              DECODING, 10)


@pytest.mark.parametrize("policy", [PolicyKind.UNIFORM, PolicyKind.APEMO])
def test_over_reported_turn_falls_back_within_cap(policy):
    budget_cap = 400
    with OverReportingServer({1}) as server:
        executor = LlmExecutor(endpoint_for(server))
        traj = run_trajectory(POLICY_TRAITS[policy], executor, 4, budget_cap, seed=3,
                              cfg=SchedulerConfig(task="plan the route"))
    assert traj.fallback
    assert traj.cost.total <= budget_cap
    assert traj.turns[1].quality == 0.0  # the over-reported call kept no answer
    if policy is PolicyKind.UNIFORM:
        # the server generated at least the call's num_predict: that is charged
        assert traj.turns[1].tokens_spent == 100


def test_over_reported_flow_call_charges_the_planner_and_its_share():
    budget_cap = 400
    with OverReportingServer({1}) as server:  # turn 1's executor call
        executor = LlmExecutor(endpoint_for(server), topology="flow")
        traj = run_trajectory(POLICY_TRAITS[PolicyKind.FLOW_PLAIN], executor, 4, budget_cap, seed=3,
                              cfg=SchedulerConfig(task="plan the route"))
        planner, over = server.transcript[:2]
        planner_eval = server.reply(planner, 0)["eval_count"]
    assert traj.fallback
    assert planner_eval > 0
    assert traj.turns[0].tokens_spent == planner_eval + over["options"]["num_predict"]
    assert traj.cost.total <= budget_cap


class FillingServer(MockModelServer):
    """Answers fill num_predict; records each reply's completion tokens."""

    def __init__(self, **kwargs):
        super().__init__(script=lambda body, i: " ".join(["plan the route step by step"] * 100),
                         **kwargs)
        self.eval_counts = []

    def reply(self, body: dict, index: int) -> dict:
        payload = super().reply(body, index)
        self.eval_counts.append(payload["eval_count"])
        return payload


@pytest.mark.parametrize("policy", [PolicyKind.FLOW_PLAIN, PolicyKind.FLOW_TEMPORAL])
def test_critic_tokens_are_on_the_ledger(policy):
    # a flow turn is two calls, planner then executor; every completion token
    # the server reported for either is charged
    budget_cap = 400
    with FillingServer() as server:
        executor = LlmExecutor(endpoint_for(server), topology="flow")
        traj = run_trajectory(POLICY_TRAITS[policy], executor, 4, budget_cap, seed=3,
                              cfg=SchedulerConfig(task="plan the route"))
    assert [is_planner(b) for b in server.transcript] == [True, False] * (
        len(server.transcript) // 2
    )
    assert not traj.fallback
    assert sum(server.eval_counts) == traj.cost.policy_cost + traj.cost.repair_cost
    assert traj.cost.total <= budget_cap


def test_failed_call_charges_the_calls_before_it():
    # a flow turn whose later call fails still generated its earlier calls'
    # tokens; they are charged, so the server never generates past the cap
    budget_cap = 400
    cfg = SchedulerConfig(task="plan the route")

    def run(fail: set[int]):
        with FillingServer(fail_requests=fail) as server:
            executor = LlmExecutor(endpoint_for(server), topology="flow")
            traj = run_trajectory(POLICY_TRAITS[PolicyKind.FLOW_TEMPORAL], executor, 4, budget_cap, seed=3,
                                  cfg=cfg)
        return traj, server

    clean, server = run(set())
    assert not clean.fallback
    for index in range(len(server.transcript)):
        traj, server = run({index})
        assert traj.fallback
        generated = sum(server.eval_counts)
        assert generated == traj.cost.policy_cost + traj.cost.repair_cost, index
        assert traj.cost.total <= budget_cap


class CountingServer(MockModelServer):
    """Counts accepted TCP connections."""

    connections = 0

    def start(self) -> "CountingServer":
        super().start()
        accept = self._httpd.process_request

        def counted(request, client_address):
            # serve_forever calls this once per accepted connection, on one thread
            self.connections += 1
            accept(request, client_address)

        self._httpd.process_request = counted
        return self


def call(endpoint: ModelEndpoint) -> None:
    chat_complete(endpoint, [{"role": "user", "content": "Task: hello"}], DECODING, 10)


def test_calls_from_one_thread_share_one_connection():
    with CountingServer() as server:
        endpoint = endpoint_for(server)
        for _ in range(20):
            call(endpoint)
        assert server.connections == 1
        assert len(server.transcript) == 20


def test_each_client_thread_keeps_its_own_connection():
    with CountingServer() as server:
        endpoint = endpoint_for(server)
        errors = []

        def run():
            try:
                for _ in range(10):
                    call(endpoint)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert server.connections == 2
        assert len(server.transcript) == 20


class DroppingServer(MockModelServer):
    """Closes each connection after one reply, without a Connection: close header."""

    def start(self) -> "DroppingServer":
        super().start()

        class OneReply(self._httpd.RequestHandlerClass):
            def handle(self) -> None:
                self.handle_one_request()

        self._httpd.RequestHandlerClass = OneReply
        return self


def test_a_dropped_idle_connection_is_resent_without_a_retry():
    with DroppingServer() as server:
        endpoint = endpoint_for(server, retries=0)
        for _ in range(20):
            call(endpoint)
        assert len(server.transcript) == 20


class FramingServer(CountingServer):
    """Writes each chat reply as the raw bytes `frame(index, payload)` returns.

    The connection stays open after the reply unless `closes(index)` says
    otherwise, so whether the client reuses it is the client's own choice.
    """

    def __init__(self, frame, closes=lambda index: False, **kwargs):
        super().__init__(**kwargs)
        self.frame = frame
        self.closes = closes

    def start(self) -> "FramingServer":
        super().start()
        owner = self

        class Framed(self._httpd.RequestHandlerClass):
            def do_POST(self) -> None:
                body = json.loads(self.rfile.read(self.content_length))
                index = owner.record(body)
                payload = json.dumps(owner.reply(body, index)).encode()
                self.wfile.write(owner.frame(index, payload))
                self.close_connection = owner.closes(index)

        self._httpd.RequestHandlerClass = Framed
        return self


def head(*lines: str) -> bytes:
    return "".join(f"{line}\r\n" for line in lines).encode() + b"\r\n"


def sized(payload: bytes, *extra: str, length: int | None = None) -> bytes:
    n = len(payload) if length is None else length
    return head("HTTP/1.1 200 OK", f"Content-Length: {n}", *extra) + payload


def chunked(payload: bytes) -> bytes:
    cut = [payload[:7], payload[7:30], payload[30:]]
    chunks = [f"{len(c):x};ext=1\r\n".encode() + c + b"\r\n" for c in cut]
    return (head("HTTP/1.1 200 OK", "Transfer-Encoding: chunked") + b"".join(chunks)
            + b"0\r\nX-Trailer: t\r\n\r\n")


def keeps_connection(endpoint: ModelEndpoint) -> bool:
    """Whether this thread holds a kept-alive connection to the endpoint."""
    return llm._target(endpoint.base_url)[:3] in getattr(llm._local, "pool", {})


def test_chunked_replies_are_read_and_the_connection_kept():
    with FramingServer(lambda index, payload: chunked(payload)) as server:
        endpoint = endpoint_for(server)
        for _ in range(3):
            result = chat_complete(endpoint, [{"role": "user", "content": "Task: hello"}],
                                   DECODING, 10)
            assert result.text.startswith("Step ")
        assert server.connections == 1
        assert len(server.transcript) == 3


@pytest.mark.parametrize("first", ["close", "error"])
def test_the_connection_is_not_reused_after_a_close_or_error_reply(first):
    def frame(index, payload):
        if index > 0:
            return sized(payload)
        if first == "close":
            return sized(payload, "Connection: close")
        return head("HTTP/1.1 503 Service Unavailable", "Content-Length: 0")

    with FramingServer(frame) as server:
        endpoint = endpoint_for(server, retries=1)
        call(endpoint)  # a 503 is retried once
        call(endpoint)
        assert server.connections == 2
        assert len(server.transcript) == (2 if first == "close" else 3)


def test_a_body_cut_short_is_a_transport_error_and_drops_the_connection():
    def frame(index, payload):
        return sized(payload[:20], length=len(payload)) if index == 0 else sized(payload)

    with FramingServer(frame, closes=lambda index: index == 0) as server:
        endpoint = endpoint_for(server)
        with pytest.raises(TransportError, match="cut short"):
            call(endpoint)
        assert not keeps_connection(endpoint)
        call(endpoint)
        assert server.connections == 2
        assert len(server.transcript) == 2


@pytest.mark.parametrize("bad", [
    b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n",
    b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x4\r\nabcd\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
], ids=["status-code", "protocol", "chunk-size", "chunk-size-prefix", "length", "header"])
def test_malformed_framing_is_a_transport_error_on_the_retry_path(bad):
    def frame(index, payload):
        return bad if index == 0 else sized(payload)

    with FramingServer(frame, closes=lambda index: index == 0) as server:
        endpoint = endpoint_for(server)
        with pytest.raises(TransportError, match="malformed"):
            call(endpoint)
        assert not keeps_connection(endpoint)
        call(endpoint)  # the next reply is well framed
        assert keeps_connection(endpoint)
    with FramingServer(frame, closes=lambda index: index == 0) as server:
        call(endpoint_for(server, retries=1))  # one retry recovers
        assert len(server.transcript) == 2


@pytest.mark.parametrize("lines, ok", [(99, True), (100, False)])
def test_header_lines_are_capped_at_100(lines, ok):
    pad = [f"X-Pad-{i}: {i}" for i in range(lines)]
    with FramingServer(lambda index, payload: sized(payload, *pad)) as server:
        endpoint = endpoint_for(server)
        if ok:  # Content-Length and the padding make 100 lines
            call(endpoint)
        else:
            with pytest.raises(TransportError, match="more than 100 header lines"):
                call(endpoint)


def test_a_header_line_over_64_kib_is_a_transport_error():
    frame = lambda index, payload: sized(payload, "X-Big: " + "a" * 65536)  # noqa: E731
    with FramingServer(frame) as server:
        with pytest.raises(TransportError, match="longer than 65536 bytes"):
            call(endpoint_for(server))


def test_https_speaks_tls():
    with MockModelServer() as server:  # plain HTTP, so the TLS handshake fails
        endpoint = endpoint_for(server)
        endpoint = replace(endpoint, base_url=endpoint.base_url.replace("http://", "https://"))
        with pytest.raises(TransportError, match="SSL"):
            call(endpoint)
        assert server.transcript == []


def test_stopped_server_answers_nothing():
    server = MockModelServer().start()
    endpoint = endpoint_for(server, retries=0)
    call(endpoint)  # leaves this thread's kept-alive connection open
    ping(endpoint)
    server.stop()
    with pytest.raises(TransportError):
        call(endpoint)
    with pytest.raises(TransportError):
        ping(endpoint)


# Run in a fresh interpreter: the model-server path and validate-config load
# neither numpy nor PyYAML; a config file loads PyYAML, a simulator draw numpy.
LAZY_IMPORTS = """
import os, sys
from pathlib import Path

def unloaded(*names):
    loaded = set(names) & set(sys.modules)
    assert not loaded, loaded

import apemo, apemo.cli, apemo.mock_server
unloaded("requests", "http.client", "numpy", "yaml")

from apemo import cli, config
from apemo.mock_server import MockModelServer
assert cli.main(["validate-config"]) == 0
unloaded("numpy", "yaml")

out = Path(sys.argv[1])
config.DEFAULT_BLOCKS["tiny_llm"] = {
    "executor": "llm", "models": ["m"], "horizon": 3, "episodes": 1, "budget_cap": 600,
    "policies": ["task_peak_end", "apemo"], "seeds": {"count": 1, "start": 1},
}
with MockModelServer() as server:
    os.environ["APEMO_SERVER_URL"] = server.url
    assert cli.main(["run-llm", "--block", "tiny_llm", "--out", str(out / "runs")]) == 0
assert len((out / "runs" / "tiny_llm.runs.jsonl").read_text().splitlines()) == 2
unloaded("numpy", "yaml")

(out / "c.yaml").write_text("workers: 2")
assert cli.main(["validate-config", "--config", str(out / "c.yaml")]) == 0
assert "yaml" in sys.modules
unloaded("numpy")

from apemo.abm import AbmConfig, AbmExecutor
from apemo.executor import TurnContext
AbmExecutor(AbmConfig(), seed=1).execute_turn(TurnContext(task="t", turn=1, horizon=2), 10, 1)
assert "numpy" in sys.modules
"""


def test_import_leaves_requests_unloaded(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("APEMO_SERVER_URL", None)
    out = subprocess.run([sys.executable, "-c", LAZY_IMPORTS, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr[-500:]


def test_a_pool_miss_closes_idle_connections_to_stopped_servers():
    for _ in range(5):
        with MockModelServer() as server:
            call(endpoint_for(server))  # leaves an idle connection the stop shuts down
    with MockModelServer() as server:
        endpoint = endpoint_for(server)
        call(endpoint)
        assert list(llm._local.pool) == [llm._target(endpoint.base_url)[:3]]
