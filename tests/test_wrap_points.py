"""The names a run-time tracer wraps stay the boundaries the simulator path calls.

bench/tracer.py replaces these attributes from outside the package and reads
per-layer metrics from the calls that go through them. If a refactor inlines
one of them, or binds it once where the tracer cannot reach it, that metric
silently reads 0. Here each name is wrapped with a counter the same way, a
small trapped block runs, and every counter must move while the records stay
those of an unwrapped run.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import replace

from apemo import benchmark, scheduler, signals
from apemo.abm import AbmConfig, AbmExecutor, TrapSpec
from apemo.benchmark import BlockConfig, RunStore, RuntimeSettings, run_block
from apemo.scheduler import PolicyKind

LEDGER_MUTATORS = (
    "charge_policy", "charge_overhead", "add_reserve", "grant_repair", "refund_repair"
)

WRAP_POINTS = (
    (benchmark, "run_cell"),
    (benchmark, "run_trajectory"),
    (benchmark, "aggregate_run"),
    (RunStore, "append"),
    (RunStore, "__init__"),
    (scheduler, "compute_proxies"),
    (scheduler, "request_repair"),
    (signals.TextDigest, "from_tokens"),
    (signals.TextDigest, "from_text"),
    (AbmExecutor, "execute_turn"),
) + tuple((scheduler.BudgetLedger, name) for name in LEDGER_MUTATORS)


def trapped_block() -> BlockConfig:
    return BlockConfig(
        name="wraptest",
        executor="abm",
        models=("abm-a",),
        horizon=6,
        episodes=2,
        budget_cap=900,
        policies=(PolicyKind.APEMO,),
        seeds=(1, 2, 3),
        trap=TrapSpec(trap_turn=3, severity=0.4),
        abm=AbmConfig(noise_sd=0.1),
    )


def _counting(owner: object, attr: str, counts: dict, monkeypatch) -> None:
    """Replace owner.attr the way the tracer does: functions, methods and classmethods."""
    static = inspect.getattr_static(owner, attr)
    fn = static.__func__ if isinstance(static, classmethod) else static
    key = f"{getattr(owner, '__name__', owner)}.{attr}"
    counts[key] = 0

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    replacement = classmethod(counted) if isinstance(static, classmethod) else counted
    monkeypatch.setattr(owner, attr, replacement)


def test_every_wrap_point_is_called_and_records_are_unchanged(tmp_path, monkeypatch):
    block = trapped_block()
    plain = run_block(block, RuntimeSettings(), store=RunStore(tmp_path / "plain.runs.jsonl"))

    counts: dict[str, int] = {}
    for owner, attr in WRAP_POINTS:
        _counting(owner, attr, counts, monkeypatch)
    # the task digest is cached per (task, ngram order); start cold so it is built here
    scheduler._task_digest.cache_clear()
    wrapped = run_block(block, RuntimeSettings(), store=RunStore(tmp_path / "wrapped.runs.jsonl"))

    never = [name for name, n in counts.items() if n == 0]
    assert not never, f"never called through the wrapper: {never}"
    assert [r.to_dict() for r in wrapped] == [r.to_dict() for r in plain]
    assert (tmp_path / "wrapped.runs.jsonl").read_bytes() == (
        tmp_path / "plain.runs.jsonl"
    ).read_bytes()


def test_run_trajectory_is_called_once_per_trajectory_copies_included(monkeypatch):
    """The tracer's scheduler.run_trajectory.calls counts trajectories: apemo's
    copies of task_peak_end's runs go through run_trajectory too."""
    block = replace(trapped_block(), policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
                    trap=TrapSpec(trap_turn=3, severity=0.2))
    counts: dict[str, int] = {}
    _counting(benchmark, "run_trajectory", counts, monkeypatch)
    repairs_at = []
    real_first_repair = scheduler.first_repair

    def recording(*args):
        at = real_first_repair(*args)
        repairs_at.append(at)
        return at

    monkeypatch.setattr(scheduler, "first_repair", recording)
    run_block(block, RuntimeSettings())
    trajectories = block.runs_per_policy * len(block.policies) * block.episodes
    assert counts["apemo.benchmark.run_trajectory"] == trajectories
    # apemo copied some episodes and resumed the others
    assert None in repairs_at and any(at is not None for at in repairs_at)
