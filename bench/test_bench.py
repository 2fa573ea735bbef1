"""Tests of the benchmark's own logic: grids, metric names, mock script, checks.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from apemo import benchmark  # noqa: E402
from apemo.benchmark import RunStore, RuntimeSettings, run_block  # noqa: E402
from apemo.executor import ExecutorError, TurnContext  # noqa: E402
from apemo.llm import DecodingParams, ModelEndpoint, build_turn_messages, chat_complete  # noqa: E402
from apemo.tasks import TASKS  # noqa: E402

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mock_child import MockServerProcess  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_grids_and_seeds_are_deterministic_per_workload_seed():
    assert workloads.abm_grids(7) == workloads.abm_grids(7)
    assert workloads.llm_grid(7) == workloads.llm_grid(7)
    assert workloads.derive_seeds(7, "x", 5) == workloads.derive_seeds(7, "x", 5)
    assert workloads.abm_grids(7)[0].seeds != workloads.abm_grids(8)[0].seeds
    assert workloads.llm_grid(7).seeds != workloads.llm_grid(8).seeds
    long_grid, trap_grid = workloads.abm_grids(7)
    assert len(set(long_grid.seeds)) == workloads.SWEEP_LONG_SEEDS
    assert len(set(trap_grid.seeds)) == workloads.SWEEP_TRAP_SEEDS


def test_metric_names_match_the_declared_benchmark():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    assert e2e == list(harness.E2E_METRICS)
    assert layers == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in declared["workloads"]] == list(bench_run.WORKLOADS)
    names = [n for n, _ in e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
        assert len(name) <= 64


def test_layer_metrics_cover_every_declared_name():
    computed = set(tracer.layer_metrics(tracer.Tracer()))
    filled_by_runner = {
        "mock_server.requests", "mock_server.connections", "config.load_config.ms",
        "import_s", "fail_ratio", "trace.overhead_pct",
    }
    assert computed | filled_by_runner == {n for n, _ in tracer.LAYER_METRICS}


def _turn_messages(turn: int, role: str, trapped: bool) -> dict:
    ctx = TurnContext(task=TASKS[0], turn=turn, horizon=8, history=("earlier answer",))
    return {"messages": build_turn_messages(ctx, role, trapped)}


def test_trap_script_loops_only_on_trapped_prompts():
    for role in ("single", "planner", "executor"):
        assert workloads.trap_aware_script(_turn_messages(4, role, True), 0) == workloads.LOOP_REPLY
        reply = workloads.trap_aware_script(_turn_messages(4, role, False), 0)
        assert "loop" not in reply.split()
        assert reply.startswith("Step 4:")
    critic = workloads.trap_aware_script(_turn_messages(4, "critic", False), 0)
    assert "loop" not in critic.split()


def test_trap_script_ignores_the_request_index():
    body = _turn_messages(3, "single", False)
    assert workloads.trap_aware_script(body, 0) == workloads.trap_aware_script(body, 917)


def test_failed_turns_count_first_attempts_only():
    class Down:
        def execute_turn(self, ctx, allocated_tokens, seed):
            raise ExecutorError("model server down")

    with tracer.Tracer() as t:
        t.guard(Down, "execute_turn", "failed_turns")
        for attempt in (0, 1, 2, 0):
            ctx = TurnContext(task=TASKS[0], turn=1, horizon=8, attempt=attempt)
            with pytest.raises(ExecutorError):
                Down().execute_turn(ctx, 10, 1)
    assert t.counts["failed_turns"] == 2


def _doctor(path: Path, out: Path, line_no: int, **fields) -> Path:
    lines = path.read_text(encoding="utf-8").splitlines()
    d = json.loads(lines[line_no])
    d.update(fields)
    lines[line_no] = json.dumps(d, sort_keys=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def test_output_checks_reject_doctored_records(tmp_path):
    _, grid = workloads.abm_grids(3, long_seeds=1, trap_seeds=2)
    path = tmp_path / "runs.jsonl"
    run_block(grid, RuntimeSettings(), store=RunStore(path))
    assert workloads.check_records(grid, RunStore(path).records()) == []

    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    over = _doctor(path, tmp_path / "over.jsonl", 0, total_cost=grid.budget_cap + 1.0)
    problems = workloads.check_records(grid, RunStore(over).records())
    assert any("> cap" in p for p in problems)

    skewed = _doctor(path, tmp_path / "skew.jsonl", 0, repair_cost=first["repair_cost"] + 1.0)
    problems = workloads.check_records(grid, RunStore(skewed).records())
    assert any("cost channels" in p for p in problems)

    short = tmp_path / "short.jsonl"
    short.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[1:]), encoding="utf-8")
    problems = workloads.check_records(grid, RunStore(short).records())
    assert any("records for" in p for p in problems)


def test_tracing_changes_no_record_and_restores_the_package(tmp_path):
    _, grid = workloads.abm_grids(5, long_seeds=1, trap_seeds=2)
    plain = run_block(grid, RuntimeSettings())
    original = benchmark.run_cell
    with tracer.layer_points(tracer.Tracer()) as t:
        traced = run_block(grid, RuntimeSettings(), store=RunStore(tmp_path / "runs.jsonl"))
    assert benchmark.run_cell is original
    assert workloads.records_sha(plain) == workloads.records_sha(traced)
    values = tracer.layer_metrics(t)
    trajectories = workloads.cell_count(grid) * grid.episodes
    assert values["scheduler.run_trajectory.calls"] == trajectories
    assert values["abm.execute_turn.calls"] >= trajectories * grid.horizon
    assert values["benchmark.store.append.calls"] == workloads.cell_count(grid)
    assert values["benchmark.store.bytes_written"] == (tmp_path / "runs.jsonl").stat().st_size
    assert values["llm.chat_complete.calls"] == 0
    assert values["stats.bootstrap_ci.calls"] == 0


def test_mock_server_child_serves_the_trap_script_and_always_ends():
    server = MockServerProcess().start()
    proc = server._proc
    try:
        endpoint = ModelEndpoint(base_url=server.url, model_id="mock-a", max_retries=0)
        body = _turn_messages(4, "single", True)
        reply = chat_complete(endpoint, body["messages"], DecodingParams(), token_cap=5)
        assert reply.text == "loop loop loop loop loop"
        assert server.stats() == {"requests": 1, "connections": 1}
    finally:
        server.close()
    assert proc.poll() is not None
    assert server.final == {"requests": 1, "connections": 1}


def test_run_fails_without_the_package(tmp_path):
    copy = tmp_path / "bare"
    shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "abm_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_output_checks_reject_a_changed_sha_between_passes(capsys):
    def result(sha: str) -> workloads.PassResult:
        return workloads.PassResult(seconds=1.0, ops=1, turns=8, failed=0, repairs=1.0, sha=sha)

    grids = workloads.abm_grids(1)
    sweep = workloads.Sweep(grids, RuntimeSettings(), workers=1, tmp=Path("."))
    same = harness.check_outputs("llm_mock", sweep, result("a"), [result("a"), result("a")])
    assert same == []
    changed = harness.check_outputs("llm_mock", sweep, result("a"), [result("a"), result("b")])
    assert any("sha differs" in p for p in changed)
    assert "records_sha llm_mock a" in capsys.readouterr().out


def test_speed_probe_children_answer_and_end():
    probe = speed.SpeedProbe(2)
    with probe:
        procs = [child._proc for child in probe._children]
        assert probe.reference_seconds() > 0
    assert all(proc.poll() is not None for proc in procs)
