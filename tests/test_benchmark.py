"""Block execution, aggregation, persistence, and trap metric definitions."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from apemo import benchmark
from apemo.abm import STREAM_VERSION, AbmConfig, TrapSpec
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
from apemo.scheduler import PolicyKind
from apemo.trajectory import CostBreakdown, Trajectory, TurnRecord


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
        turns=turns, policy="apemo", model_id="m", seed=1, episode_id=0,
        budget_cap=50 * len(qualities),
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
    assert store.block is None
    store.append(_one_record(1))
    assert store.block == "blocktest"
    intact = path.read_bytes()
    other = replace(_one_record(2), block="other")
    with pytest.raises(StoreError, match=re.escape(str(path)) + ".*'other'.*'blocktest'"):
        store.append(other)
    assert path.read_bytes() == intact
    assert store.get(other.run_key) is None and store.block == "blocktest"
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
