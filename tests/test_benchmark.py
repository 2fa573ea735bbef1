"""Block execution, aggregation, persistence, and trap metric definitions."""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest

from apemo import benchmark, scheduler
from apemo.abm import STREAM_VERSION, AbmConfig, AbmExecutor, TrapSpec
from apemo.executor import ExecutorError
from apemo.benchmark import (
    BlockConfig,
    RunRecord,
    RunStore,
    RuntimeSettings,
    StoreError,
    derive_seed,
    no_fallback_rate,
    run_block,
    trap_metrics,
)
from apemo.llm import _TRAP_NOTE, LlmExecutor, ModelEndpoint
from apemo.mock_server import MockModelServer, default_script
from apemo.scheduler import (
    POLICY_TRAITS,
    DetectionConfig,
    PolicyKind,
    RepairReason,
    SchedulerConfig,
    first_repair,
    run_trajectory,
)
from apemo.trajectory import CostBreakdown, Trajectory, TurnRecord
from hostile_executors import HOSTILE_EXECUTORS, HostileExecutor


def sim_block(**overrides) -> BlockConfig:
    spec = dict(
        name="blocktest",
        executor="abm",
        models=("abm-a",),
        horizon=6,
        episodes=2,
        budget_cap=900,
        policies=(PolicyKind.UNIFORM, PolicyKind.APEMO),
        seeds=tuple(range(1, 11)),
        abm=AbmConfig(noise_sd=0.1),
    )
    spec.update(overrides)
    return BlockConfig(**spec)


def make_traj(qualities, frustrations=None):
    frustrations = frustrations or [0.1] * len(qualities)
    turns = tuple(
        TurnRecord(index=i + 1, quality=q, frustration=f, tokens_spent=50)
        for i, (q, f) in enumerate(zip(qualities, frustrations))
    )
    return Trajectory(
        turns=turns, budget_cap=50 * len(qualities),
        cost=CostBreakdown(policy_cost=50 * len(qualities)),
    )


def test_run_block_cell_counting():
    # 2 policies x 10 seeds x 1 model -> 20 records
    records = run_block(sim_block(), RuntimeSettings())
    assert len(records) == 20
    assert len({r.run_key for r in records}) == 20


def test_run_block_strict_long_horizon_shape():
    # 2 models, T=8, 2 episodes, 3 policies, 10 seeds -> 20 runs per policy
    block = sim_block(
        name="longshape",
        models=("abm-a", "abm-b"),
        horizon=8,
        budget_cap=1600,
        policies=(PolicyKind.TASK_AFFECT, PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
    )
    records = run_block(block, RuntimeSettings())
    assert block.runs_per_policy == 20
    per_policy = {p.value: 0 for p in block.policies}
    for r in records:
        per_policy[r.policy] += 1
        assert r.episodes == 2
    assert all(count == 20 for count in per_policy.values())


def test_run_block_resume_is_idempotent(tmp_path):
    block = sim_block(seeds=tuple(range(1, 4)))
    store_path = tmp_path / "b.runs.jsonl"
    first = run_block(block, RuntimeSettings(), store=RunStore(store_path))
    content_first = store_path.read_text()

    calls = []
    second = run_block(
        block, RuntimeSettings(), store=RunStore(store_path),
        on_record=lambda rec, resumed: calls.append(resumed),
    )
    assert store_path.read_text() == content_first  # nothing re-executed
    assert all(calls)  # every record came from the store
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_resume_refuses_records_of_another_stream(tmp_path):
    block = sim_block(seeds=(1, 2))
    store_path = tmp_path / "b.runs.jsonl"
    records = run_block(block, RuntimeSettings(), store=RunStore(store_path))
    assert {r.stream_version for r in records} == {STREAM_VERSION}
    row = records[-1].to_dict()
    del row["stream_version"]
    store_path.write_text(json.dumps(row) + "\n")
    stale = RunStore(store_path)
    assert stale.records()[0].stream_version is None
    ran = []
    with pytest.raises(StoreError, match=re.escape(str(store_path))):
        run_block(block, RuntimeSettings(), store=stale,
                  on_record=lambda rec, resumed: ran.append(rec))
    assert ran == []
    assert store_path.read_text() == json.dumps(row) + "\n"


def test_store_refuses_a_line_of_another_stream_at_load(tmp_path):
    path = tmp_path / "s.runs.jsonl"
    run_block(sim_block(seeds=(1,)), RuntimeSettings(), store=RunStore(path))
    first, second = path.read_text().splitlines(keepends=True)
    row = json.loads(second)
    row["stream_version"] = STREAM_VERSION - 1
    mixed = first + json.dumps(row, sort_keys=True) + "\n"
    path.write_text(mixed)
    with pytest.raises(StoreError, match=re.escape(f"{path}:2: ") + ".*stream_version "
                       f"{STREAM_VERSION - 1} in a store of stream_version {STREAM_VERSION}"):
        RunStore(path)
    assert path.read_text() == mixed


def test_store_rejects_duplicate_keys(tmp_path):
    store = RunStore(tmp_path / "x.jsonl")
    records = run_block(sim_block(seeds=(1,)), RuntimeSettings())
    store.append(records[0])
    with pytest.raises(ValueError):
        store.append(records[0])


def test_store_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    records = run_block(sim_block(seeds=(1,), policies=(PolicyKind.UNIFORM,)), RuntimeSettings())
    row = records[0].to_dict()
    row["schema_version"] = 99
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError):
        RunStore(path)


def test_workers_produce_same_records(tmp_path):
    block = sim_block(seeds=tuple(range(1, 5)))
    serial = run_block(block, RuntimeSettings(), workers=1)
    threaded = run_block(block, RuntimeSettings(), workers=4)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in threaded]


_PROMPT_TURN = re.compile(r"This is turn (\d+) of \d+\.")


def turn_keyed_script(body: dict, index: int) -> str:
    """A repeated word for a trapped prompt, else default_script's reply for the
    turn the prompt names: thread workers interleave their requests, so the
    server's request index is not the turn."""
    user = next(m["content"] for m in reversed(body["messages"]) if m["role"] == "user")
    if _TRAP_NOTE in user:
        return " ".join(["loop"] * 48)
    match = _PROMPT_TURN.search(user)
    return default_script(body, int(match.group(1)) - 1 if match else 0)


def test_llm_workers_produce_same_records():
    block = sim_block(
        name="llmworkers", executor="llm", models=("mock-a", "mock-b"), horizon=6, episodes=1,
        budget_cap=2400, seeds=(1, 2, 3),
        policies=(PolicyKind.UNIFORM, PolicyKind.APEMO, PolicyKind.FLOW_TEMPORAL),
        trap=TrapSpec(trap_turn=3, severity=0.4, recovery_rate=0.3),
    )
    with MockModelServer(script=turn_keyed_script) as server:
        settings = RuntimeSettings(endpoint=ModelEndpoint(
            base_url=server.url, model_id="test-model", timeout=5.0, max_retries=0,
            backoff_base=0.01))
        serial = run_block(block, settings, workers=1)
        threaded = run_block(block, settings, workers=2)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in threaded]
    assert any(r.repair_cost > 0 for r in serial)  # the trapped turns were repaired


def test_derived_seed_shared_across_policies():
    assert derive_seed("abm-a", 3, 0) == derive_seed("abm-a", 3, 0)
    assert derive_seed("abm-a", 3, 0) != derive_seed("abm-a", 4, 0)
    assert derive_seed("abm-a", 3, 0) != derive_seed("abm-b", 3, 0)


def test_trap_metrics_flat_trajectory():
    traj = make_traj([0.6] * 8)
    m = trap_metrics(traj, 4)
    assert m["quality_drop"] == pytest.approx(0.0)
    assert m["quality_rebound2"] == pytest.approx(0.0)
    assert m["endpoint_quality"] == pytest.approx(0.6)


def test_trap_metrics_index_arithmetic():
    traj = make_traj([0.8, 0.8, 0.3, 0.5, 0.7, 0.75], [0.2, 0.2, 0.8, 0.6, 0.3, 0.2])
    m = trap_metrics(traj, 3)
    assert m["quality_drop"] == pytest.approx(0.5)
    assert m["quality_rebound2"] == pytest.approx(0.4)
    assert m["frustration_drop2"] == pytest.approx(0.5)
    assert m["endpoint_quality"] == pytest.approx(0.75)


def test_trap_metrics_guards_window():
    traj = make_traj([0.5] * 6)
    with pytest.raises(ValueError):
        trap_metrics(traj, 6)  # trap at the horizon end
    with pytest.raises(ValueError):
        trap_metrics(traj, 5)  # no +2 window
    with pytest.raises(ValueError):
        trap_metrics(traj, 1)  # no pre-trap turn


def test_no_fallback_rate_fractions():
    records = run_block(sim_block(seeds=tuple(range(1, 21)), policies=(PolicyKind.UNIFORM,)),
                        RuntimeSettings())
    assert len(records) == 20
    assert no_fallback_rate(records) == 1.0

    def flip(r: RunRecord, value: bool) -> RunRecord:
        d = r.to_dict()
        d["fallback"] = value
        return RunRecord.from_dict(d)

    one_bad = [flip(r, i == 0) for i, r in enumerate(records)]
    assert no_fallback_rate(one_bad) == pytest.approx(0.95)
    assert no_fallback_rate([flip(r, True) for r in records]) == 0.0
    with pytest.raises(ValueError):
        no_fallback_rate([])


def test_interrupted_block_resumes_without_duplicates(tmp_path):
    # crash after two cells, then rerun: completed cells are kept, the rest
    # execute once, and no run key is ever duplicated
    block = sim_block(seeds=tuple(range(1, 5)))  # 8 cells
    store_path = tmp_path / "i.runs.jsonl"

    class Interrupt(RuntimeError):
        pass

    seen = []

    def crash_after_two(record, resumed):
        seen.append(record.run_key)
        if len(seen) == 2:
            raise Interrupt()

    with pytest.raises(Interrupt):
        run_block(block, RuntimeSettings(), store=RunStore(store_path),
                  on_record=crash_after_two)
    partial = store_path.read_text().strip().splitlines()
    assert len(partial) == 2

    records = run_block(block, RuntimeSettings(), store=RunStore(store_path))
    lines = store_path.read_text().strip().splitlines()
    assert len(records) == 8
    assert len(lines) == 8
    keys = [tuple(json.loads(line)[k] for k in ("model_id", "seed", "policy", "horizon"))
            for line in lines]
    assert len(set(keys)) == 8


def test_non_executor_error_propagates_and_resume_keeps_earlier_cells(tmp_path, monkeypatch):
    # an exception that is not an ExecutorError is a program fault, not a
    # failed turn: it leaves run_trajectory and run_block unchanged
    block = sim_block(seeds=tuple(range(1, 5)))  # cells (seed, policy) in order
    store_path = tmp_path / "f.runs.jsonl"
    fault = RuntimeError("executor bug")
    bad_seed = derive_seed("abm-a", 3, 0)
    real_make = benchmark._make_executor

    class Faulty:
        def __init__(self, inner):
            self.inner = inner

        def execute_turn(self, ctx, allocated_tokens, seed):
            if ctx.turn == 2:
                raise fault
            return self.inner.execute_turn(ctx, allocated_tokens, seed)

    def make(block, settings, model_id, exec_seed, policy):
        inner = real_make(block, settings, model_id, exec_seed, policy)
        return Faulty(inner) if exec_seed == bad_seed and policy is PolicyKind.APEMO else inner

    monkeypatch.setattr(benchmark, "_make_executor", make)
    with pytest.raises(RuntimeError) as raised:
        run_block(block, RuntimeSettings(), store=RunStore(store_path))
    assert raised.value is fault
    # the cells before (seed 3, apemo) are stored, and nothing else
    before = [(1, "uniform"), (1, "apemo"), (2, "uniform"), (2, "apemo"), (3, "uniform")]
    stored = store_path.read_text()
    assert [(json.loads(line)["seed"], json.loads(line)["policy"])
            for line in stored.splitlines()] == before

    monkeypatch.setattr(benchmark, "_make_executor", real_make)
    resumed = []
    records = run_block(block, RuntimeSettings(), store=RunStore(store_path),
                        on_record=lambda rec, was_stored: resumed.append(was_stored))
    assert resumed == [True] * 5 + [False] * 3
    assert store_path.read_text().startswith(stored)
    assert [r.to_dict() for r in records] == [
        r.to_dict() for r in run_block(block, RuntimeSettings())
    ]


def test_an_llm_block_without_an_endpoint_raises_before_any_cell(tmp_path):
    block = sim_block(name="no_endpoint", executor="llm")
    path = tmp_path / "l.runs.jsonl"
    calls = []
    with pytest.raises(ValueError, match="block 'no_endpoint' needs an LLM endpoint"):
        run_block(block, RuntimeSettings(), store=RunStore(path),
                  on_record=lambda rec, resumed: calls.append(rec))
    assert calls == []
    assert not path.exists()


def test_trap_block_records_carry_trap_fields():
    block = sim_block(
        name="trapblock", horizon=8, budget_cap=1600, episodes=1,
        policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
        trap=TrapSpec(4, 0.4), abm=AbmConfig(),
        seeds=tuple(range(1, 6)),
    )
    records = run_block(block, RuntimeSettings())
    for r in records:
        assert r.trap_turn == 4
        assert r.trap_quality_drop is not None
        assert r.trap_quality_rebound2 is not None


def test_block_config_validation():
    with pytest.raises(ValueError):
        sim_block(policies=())
    with pytest.raises(ValueError):
        sim_block(seeds=())
    with pytest.raises(ValueError):
        sim_block(budget_cap=3)  # below one token per turn
    with pytest.raises(ValueError):
        sim_block(trap=TrapSpec(6, 0.4))  # no rebound window inside T=6
    with pytest.raises(ValueError):
        sim_block(executor="quantum")


def test_record_round_trip():
    records = run_block(sim_block(seeds=(1,), policies=(PolicyKind.APEMO,)), RuntimeSettings())
    r = records[0]
    assert RunRecord.from_dict(json.loads(json.dumps(r.to_dict()))) == r


MISSING = object()
BAD_FIELDS = [
    ("schema_version", "1"), ("schema_version", 1.0), ("schema_version", True),
    ("schema_version", MISSING),
    ("seed", True), ("seed", 1.5), ("seed", "3"), ("horizon", None),
    ("block", 3), ("policy", None), ("fallback", 0), ("fallback", "false"),
    ("mean_quality", "high"), ("mean_quality", True), ("mean_quality", None),
    ("mean_quality", float("nan")), ("mean_quality", float("inf")), ("total_cost", 10**400),
    ("mean_quality", MISSING),
    ("quality_by_turn", [0.5, "x", 0.5, 0.5, 0.5, 0.5]), ("quality_by_turn", [0.5] * 5),
    ("quality_by_turn", "0.5"), ("frustration_by_turn", [True] * 6),
    ("frustration_by_turn", [0.1] * 5 + [float("-inf")]), ("frustration_by_turn", None),
    ("trap_turn", 4.0), ("trap_quality_drop", "0.1"), ("stream_version", "2"),
]


@pytest.mark.parametrize("name, value", BAD_FIELDS, ids=lambda v: repr(v)[:24])
def test_record_of_a_wrong_field_type_is_refused_naming_the_field(name, value):
    records = run_block(sim_block(seeds=(1,), policies=(PolicyKind.APEMO,)), RuntimeSettings())
    d = records[0].to_dict()
    if value is MISSING:
        del d[name]
    else:
        d[name] = value
    with pytest.raises((TypeError, ValueError), match=name):
        RunRecord.from_dict(d)


@pytest.mark.parametrize("name, value", [
    ("mean_quality", 1), ("total_cost", -0.0), ("quality_by_turn", (1, 0.5, 0, 0.5, 0.5, 0.5)),
    ("trap_turn", None), ("trap_quality_drop", -2), ("stream_version", None),
])
def test_record_fields_take_ints_for_floats_and_null_for_optionals(name, value):
    records = run_block(sim_block(seeds=(1,), policies=(PolicyKind.APEMO,)), RuntimeSettings())
    d = records[0].to_dict()
    d[name] = value
    assert RunRecord.from_dict(d) == replace(records[0], **{name: value})
    del d["trap_turn"], d["stream_version"]  # optional fields may be left out
    assert RunRecord.from_dict(d).trap_turn is None


def test_store_drops_torn_final_line(tmp_path, caplog):
    path = tmp_path / "t.runs.jsonl"
    records = run_block(sim_block(seeds=(1, 2, 3)), RuntimeSettings(), store=RunStore(path))
    intact = path.read_bytes()
    path.write_bytes(intact[:-40])  # an append cut off 40 bytes before its end
    with caplog.at_level("WARNING", logger="apemo.benchmark"):
        store = RunStore(path)
    assert "torn final line" in caplog.text
    kept = records[:-1]
    assert [r.to_dict() for r in store.records()] == [r.to_dict() for r in kept]
    assert path.read_bytes().endswith(b"\n")
    assert path.read_bytes() == intact[: intact.rindex(b"\n", 0, len(intact) - 1) + 1]

    store.append(records[-1])
    reopened = RunStore(path)
    assert [r.to_dict() for r in reopened.records()] == [r.to_dict() for r in records]
    assert path.read_bytes() == intact


def test_store_completes_an_unterminated_final_record(tmp_path):
    path = tmp_path / "u.runs.jsonl"
    records = run_block(sim_block(seeds=(1, 2)), RuntimeSettings(), store=RunStore(path))
    intact = path.read_bytes()
    path.write_bytes(intact[:-1])  # the record is whole, only its newline is missing
    store = RunStore(path)
    assert [r.to_dict() for r in store.records()] == [r.to_dict() for r in records]
    assert path.read_bytes() == intact


@pytest.mark.parametrize("field, value", [("horizon", 5), ("episodes", 1)])
def test_store_refuses_a_line_of_another_horizon_or_episode_count_at_load(tmp_path, field, value):
    path, other = tmp_path / "s.runs.jsonl", tmp_path / "other.runs.jsonl"
    run_block(sim_block(seeds=(1,)), RuntimeSettings(), store=RunStore(path))
    run_block(sim_block(seeds=(2,), **{field: value}), RuntimeSettings(), store=RunStore(other))
    mixed = path.read_text() + other.read_text()
    path.write_text(mixed)
    stored = getattr(sim_block(), field)
    with pytest.raises(StoreError, match=re.escape(f"{path}:3: a record of {field} {value} "
                                                   f"in a store of {field} {stored};")):
        RunStore(path)
    assert path.read_text() == mixed


def test_store_still_rejects_malformed_complete_line(tmp_path):
    path = tmp_path / "m.runs.jsonl"
    run_block(sim_block(seeds=(1,)), RuntimeSettings(), store=RunStore(path))
    intact = path.read_bytes()
    path.write_bytes(intact[:-40] + b"\n" + intact)
    with pytest.raises(StoreError, match=re.escape(f"{path}:2: ")):
        RunStore(path)
    assert path.read_bytes() == intact[:-40] + b"\n" + intact  # nothing cut


def _one_record(seed: int = 1) -> RunRecord:
    return run_block(sim_block(seeds=(seed,), policies=(PolicyKind.APEMO,)), RuntimeSettings())[0]


def test_store_append_refuses_a_record_of_another_block(tmp_path):
    path = tmp_path / "a.runs.jsonl"
    store = RunStore(path)
    assert store.stamp is None
    store.append(_one_record(1))
    assert store.stamp.block == "blocktest"
    intact = path.read_bytes()
    other = replace(_one_record(2), block="other")
    with pytest.raises(StoreError, match=re.escape(str(path)) + ".*'other'.*'blocktest'"):
        store.append(other)
    assert path.read_bytes() == intact
    assert store.get(other.run_key) is None and store.stamp.block == "blocktest"
    assert [r.block for r in RunStore(path).records()] == ["blocktest"]


def test_store_append_is_one_write_of_one_line(tmp_path, monkeypatch):
    records = [_one_record(1), _one_record(2)]
    path = tmp_path / "w.runs.jsonl"
    store = RunStore(path)
    writes = []
    real_write = benchmark.os.write

    def recording_write(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(benchmark.os, "write", recording_write)
    for record in records:
        store.append(record)
    expected = [(json.dumps(r.to_dict(), sort_keys=True) + "\n").encode("utf-8") for r in records]
    assert writes == expected
    assert all(w.count(b"\n") == 1 and w.endswith(b"\n") for w in writes)
    assert path.read_bytes() == b"".join(expected)


def test_store_makes_a_missing_directory_again(tmp_path):
    records = [_one_record(1), _one_record(2)]
    parent = tmp_path / "deep" / "er"
    path = parent / "d.runs.jsonl"
    store = RunStore(path)
    assert not parent.exists()
    store.append(records[0])
    assert path.read_bytes().count(b"\n") == 1
    # the directory vanishes between two appends: the next append makes it again
    path.unlink()
    parent.rmdir()
    store.append(records[1])
    assert path.read_bytes() == (json.dumps(records[1].to_dict(), sort_keys=True) + "\n").encode()


def test_reopened_store_reads_the_appended_lines(tmp_path):
    path = tmp_path / "r.runs.jsonl"
    records = run_block(sim_block(seeds=(1, 2, 3)), RuntimeSettings(), store=RunStore(path))
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == len(records)
    reopened = RunStore(path)
    assert [r.to_dict() for r in reopened.records()] == [r.to_dict() for r in records]
    assert path.read_bytes() == b"".join(lines)


# (plain twin, detecting policy) shares runs; the other two orders must not
SHARING_ORDERS = (
    (PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
    (PolicyKind.APEMO, PolicyKind.TASK_PEAK_END),
    (PolicyKind.UNIFORM, PolicyKind.TASK_AFFECT),
)


def _lines(records) -> list[str]:
    return [json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records]


def _cells_alone(block, settings) -> list[RunRecord]:
    """Every cell of the grid run on its own, sharing no run, in grid order."""
    return [benchmark.run_cell(block, settings, model, seed, policy)
            for model in block.models for seed in block.seeds for policy in block.policies]


def test_shared_runs_give_the_record_lines_of_cells_run_alone(tmp_path, monkeypatch):
    outcomes = {"resumed": 0, "copied": 0}
    real_first_repair = scheduler.first_repair

    def counting(*args):
        at = real_first_repair(*args)
        outcomes["copied" if at is None else "resumed"] += 1
        return at

    monkeypatch.setattr(scheduler, "first_repair", counting)
    rng = random.Random(28)
    for case in range(60):
        horizon = rng.randint(1, 12)
        trap = None
        if horizon >= 4 and rng.random() < 0.5:
            trap = TrapSpec(trap_turn=rng.randint(2, horizon - 2),
                            severity=rng.choice((0.2, 0.4, 0.6)))
        block = sim_block(
            name=f"fuzz{case}",
            models=("abm-a", "abm-b"),
            horizon=horizon,
            episodes=rng.randint(1, 2),
            budget_cap=horizon * rng.choice((1, 2, 8, 30, 85, 200)),  # down to 1 token a turn
            policies=SHARING_ORDERS[case % len(SHARING_ORDERS)],
            seeds=tuple(rng.sample(range(1, 10**6), 2)),
            trap=trap,
            abm=AbmConfig(noise_sd=rng.choice((0.05, 0.12, 0.25))),
        )
        settings = RuntimeSettings(scheduler=SchedulerConfig(
            max_repairs=rng.randint(0, 3), monitor_overhead=rng.choice((0, 15, 40)),
            detection=DetectionConfig(frustration_threshold=rng.choice((0.7, 0.3)))))
        expected = _lines(_cells_alone(block, settings))
        for workers in (1, 2):
            path = tmp_path / f"{block.name}.w{workers}.runs.jsonl"
            records = run_block(block, settings, store=RunStore(path), workers=workers)
            assert _lines(records) == expected, (case, workers)
            assert path.read_text().splitlines(keepends=True) == expected, (case, workers)
    # both ways of sharing a run were taken, each many times
    assert min(outcomes.values()) >= 20, outcomes


class SecondTurnFailingExecutor(HostileExecutor):
    """Simulator whose first attempt at turn 2 raises ExecutorError."""

    def execute_turn(self, ctx, allocated_tokens, seed):
        if ctx.turn == 2 and ctx.attempt == 0:
            self.failed = True
            raise ExecutorError("injected first-attempt failure")
        return self.inner.execute_turn(ctx, allocated_tokens, seed)


@pytest.mark.parametrize("hostile", (None, *HOSTILE_EXECUTORS, SecondTurnFailingExecutor),
                         ids=lambda h: h.__name__ if h else "simulator")
def test_a_run_resumed_at_its_first_repair_equals_the_full_run(hostile, monkeypatch):
    granted = []  # trigger turns of the negative-peak repairs granted in a full run
    real_request = scheduler.request_repair

    def recording(ledger, reason, want, turn):
        decision = real_request(ledger, reason, want, turn)
        if reason is RepairReason.NEGATIVE_PEAK and decision.granted_tokens > 0:
            granted.append(turn)
        return decision

    monkeypatch.setattr(scheduler, "request_repair", recording)
    starts = []
    for seed in range(1, 121):
        # lower frustration thresholds make the clause that reads the score fire
        cfg = SchedulerConfig(
            detection=DetectionConfig(frustration_threshold=(0.7, 0.45, 0.3)[seed % 3]),
            max_repairs=(2, 0, 1, 3)[seed % 4],
        )
        cap = (680, 680, 200, 24, 8)[seed % 5]
        trap = TrapSpec(trap_turn=4, severity=0.4) if seed % 2 else None
        executor = AbmExecutor(AbmConfig(noise_sd=0.12), seed, trap=trap)
        if hostile is not None:
            executor = hostile(executor)
        log: list = []
        twin = run_trajectory(POLICY_TRAITS[PolicyKind.TASK_PEAK_END], executor, 8, cap, seed, cfg, log=log)
        assert twin == run_trajectory(POLICY_TRAITS[PolicyKind.TASK_PEAK_END], executor, 8, cap, seed, cfg)
        assert len(log) == 8
        granted.clear()
        full_log: list = []
        full = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], executor, 8, cap, seed, cfg, log=full_log)
        at = first_repair(POLICY_TRAITS[PolicyKind.APEMO], log, cap, cfg)
        assert (at + 1 if at is not None else None) == (granted[0] if granted else None)
        # up to its first repair the detecting run logs the twin's turns, scores included
        shared_turns = at if at is not None else 8
        assert log[:shared_turns] == full_log[:shared_turns]
        resumed_log: list = []
        resumed = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], executor, 8, cap, seed, cfg,
                                 log=resumed_log, twin=log)
        assert resumed == full
        # the twin's prefix plus the turns run from its last entry: the full run's log
        assert resumed_log == full_log
        if at is None:
            assert twin == full
        starts.append(at)
    resumed_at = [at + 1 for at in starts if at is not None]
    assert len(resumed_at) >= 10
    if hostile is None:  # the simulator also copies runs and resumes late ones
        assert None in starts and max(resumed_at) > 4


def _count_calls(monkeypatch, owner: type) -> list[int]:
    calls = [0]
    real = owner.execute_turn

    def counted(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(owner, "execute_turn", counted)
    return calls


@pytest.mark.parametrize("policies", SHARING_ORDERS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def test_a_simulator_block_shares_runs_only_from_a_plain_twin_listed_first(
    monkeypatch, policies
):
    block = sim_block(horizon=8, budget_cap=680, policies=policies, trap=TrapSpec(4, 0.4))
    calls = _count_calls(monkeypatch, AbmExecutor)
    alone = _cells_alone(block, RuntimeSettings())
    unshared, calls[0] = calls[0], 0
    shared = run_block(block, RuntimeSettings())
    assert _lines(shared) == _lines(alone)
    if policies == (PolicyKind.TASK_PEAK_END, PolicyKind.APEMO):
        assert calls[0] < unshared
    else:
        assert calls[0] == unshared


def test_a_twin_resumed_from_the_store_shares_no_runs(tmp_path, monkeypatch):
    block = sim_block(horizon=8, budget_cap=680, policies=SHARING_ORDERS[0],
                      trap=TrapSpec(4, 0.4))
    alone = _cells_alone(block, RuntimeSettings())
    store = RunStore(tmp_path / "runs.jsonl")
    for record in alone:
        if record.policy == PolicyKind.TASK_PEAK_END.value:
            store.append(record)
    asked = []
    monkeypatch.setattr(scheduler, "first_repair", lambda *args: asked.append(args))
    records = run_block(block, RuntimeSettings(), store=store)
    assert _lines(records) == _lines(alone)
    assert asked == []  # apemo ran every episode in full


def test_a_model_server_block_shares_no_runs(monkeypatch):
    block = sim_block(
        name="llmshare", executor="llm", models=("test-model",), horizon=4, episodes=1,
        budget_cap=600, policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO), seeds=(1, 2),
    )
    calls = _count_calls(monkeypatch, LlmExecutor)
    with MockModelServer() as server:
        settings = RuntimeSettings(endpoint=ModelEndpoint(
            base_url=server.url, model_id="test-model", timeout=5.0, max_retries=0,
            backoff_base=0.01))
        alone = _cells_alone(block, settings)
        unshared, calls[0] = calls[0], 0
        transcript = list(server.transcript)
        server.transcript.clear()
        shared = run_block(block, settings)
    assert _lines(shared) == _lines(alone)
    assert calls[0] == unshared
    # each cell sends the same requests in the same order, so each policy's do
    assert server.transcript == transcript


def test_a_run_that_spends_no_token_records_zero_reuse_per_cost():
    # an empty reply costs nothing and flow_plain pays no overhead, so every
    # episode's cost is 0; its reuse per cost counts as 0 instead of failing the block
    block = sim_block(
        name="llmempty", executor="llm", models=("test-model",), horizon=4, episodes=2,
        budget_cap=600, policies=(PolicyKind.FLOW_PLAIN, PolicyKind.FLOW_TEMPORAL),
        seeds=(1, 2),
    )
    with MockModelServer(script=lambda body, index: "") as server:
        settings = RuntimeSettings(endpoint=ModelEndpoint(
            base_url=server.url, model_id="test-model", timeout=5.0, max_retries=0,
            backoff_base=0.01))
        records = run_block(block, settings)
    plain = [r for r in records if r.policy == PolicyKind.FLOW_PLAIN.value]
    assert len(plain) == 2
    assert all(r.total_cost == 0 and r.reuse_per_cost == 0.0 for r in plain)
    # flow_temporal pays its monitoring overhead, so its reuse per cost is defined
    assert all(r.total_cost > 0 and r.reuse_per_cost > 0
               for r in records if r.policy == PolicyKind.FLOW_TEMPORAL.value)
