"""Grids, the trap-aware mock script, output checks and the three workloads.

Every grid is built here with ``BlockConfig`` from the workload seed; none is
read from the package's default blocks, so a change to the config module or
to its default blocks cannot silently change what a workload runs. Why each
workload exists is recorded on its builder below and in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from apemo import cli
from apemo.abm import AbmConfig, TrapSpec
from apemo.benchmark import BlockConfig, RunRecord, RunStore, RuntimeSettings, run_block
from apemo.llm import _TRAP_NOTE
from apemo.mock_server import default_script
from apemo.scheduler import PolicyKind

# Grid sizes. The sweep grids keep the shapes of the sim_long / sim_trap
# blocks; report_stats pre-generates a larger set of the same shapes so the
# bootstrap dominates the report.
SWEEP_LONG_SEEDS = 10
SWEEP_TRAP_SEEDS = 20
REPORT_LONG_SEEDS = 15
REPORT_TRAP_SEEDS = 30
LLM_SEEDS = 4

LOOP_REPLY = " ".join(["loop"] * 48)
_TURN_RE = re.compile(r"This is turn (\d+) of \d+\.")


def derive_seeds(workload_seed: int, label: str, count: int) -> tuple[int, ...]:
    """Distinct, sorted grid seeds drawn from (workload seed, grid label)."""
    rng = random.Random(f"{label}|{workload_seed}")
    return tuple(sorted(rng.sample(range(1, 1_000_000), count)))


def abm_grids(
    workload_seed: int,
    long_seeds: int = SWEEP_LONG_SEEDS,
    trap_seeds: int = SWEEP_TRAP_SEEDS,
) -> tuple[BlockConfig, BlockConfig]:
    """A sim_long-shaped and a sim_trap-shaped simulator grid.

    Neither uses the flow_* / plan_* policies, which alias other policies on
    the simulator, so a fix for degenerate comparisons does not change what
    the report over these records computes.
    """
    long_grid = BlockConfig(
        name="bench_long",
        executor="abm",
        models=("abm-a", "abm-b"),
        horizon=8,
        episodes=2,
        budget_cap=680,
        policies=(PolicyKind.TASK_AFFECT, PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
        seeds=derive_seeds(workload_seed, "bench_long", long_seeds),
        abm=AbmConfig(noise_sd=0.12),
    )
    trap_grid = BlockConfig(
        name="bench_trap",
        executor="abm",
        models=("abm-a",),
        horizon=8,
        episodes=1,
        budget_cap=1600,
        policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
        seeds=derive_seeds(workload_seed, "bench_trap", trap_seeds),
        trap=TrapSpec(trap_turn=4, severity=0.4, recovery_rate=0.3),
    )
    return long_grid, trap_grid


def llm_grid(workload_seed: int) -> BlockConfig:
    """T=8 model-server grid with a trap at turn 4, single and flow topologies."""
    return BlockConfig(
        name="bench_llm",
        executor="llm",
        models=("mock-a", "mock-b"),
        horizon=8,
        episodes=1,
        budget_cap=2400,
        policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO, PolicyKind.FLOW_TEMPORAL),
        seeds=derive_seeds(workload_seed, "bench_llm", LLM_SEEDS),
        trap=TrapSpec(trap_turn=4, severity=0.4, recovery_rate=0.3),
    )


def trap_aware_script(body: dict, index: int) -> str:
    """Mock reply: repeated 'loop' for a trapped prompt, else the default reply.

    The default reply is keyed on the turn named in the prompt, not on the
    server's request index: two client threads interleave their requests, and
    the replies must not depend on that order or records would differ.
    """
    messages = body.get("messages", [])
    user = next(
        (m.get("content", "") for m in reversed(messages) if m.get("role") == "user"), ""
    )
    if _TRAP_NOTE in user:
        return LOOP_REPLY
    match = _TURN_RE.search(user)
    return default_script(body, int(match.group(1)) - 1 if match else 0)


def cell_count(block: BlockConfig) -> int:
    return len(block.models) * len(block.seeds) * len(block.policies)


def check_records(block: BlockConfig, records: Sequence[RunRecord]) -> list[str]:
    """Problems found in one grid's records; an empty list means they pass."""
    problems = []
    if len(records) != cell_count(block):
        problems.append(
            f"{block.name}: {len(records)} records for {cell_count(block)} cells"
        )
    for r in records:
        key = f"{block.name}:{r.model_id}/{r.seed}/{r.policy}"
        if r.total_cost > block.budget_cap:
            problems.append(f"{key}: total_cost {r.total_cost} > cap {block.budget_cap}")
        parts = r.policy_cost + r.repair_cost + r.overhead_cost
        if not math.isclose(parts, r.total_cost, rel_tol=0.0, abs_tol=1e-9):
            problems.append(f"{key}: cost channels sum to {parts}, total_cost {r.total_cost}")
    return problems


def records_sha(records: Sequence[RunRecord]) -> str:
    """sha256 over the sort-keyed JSON lines of the records, in grid order."""
    h = hashlib.sha256()
    for r in records:
        h.update((json.dumps(r.to_dict(), sort_keys=True) + "\n").encode("utf-8"))
    return h.hexdigest()


def tree_sha(root: Path) -> str:
    """sha256 over every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class PassResult:
    """One timed pass: a full run of the workload's grids, or one report."""

    seconds: float
    ops: int  # trajectories for the sweeps, report invocations for report_stats
    turns: int  # turns executed; 0 for report_stats
    failed: int  # non-zero report exits; failed first attempts are counted by the probe
    repairs: float  # repaired turns over every record of the pass
    sha: str  # records_sha for the sweeps, sha of the report files for report_stats
    problems: list[str] = field(default_factory=list)
    speed: float = 1.0  # speed.speed_factor around the pass, set by the runner
    cell_s: list[float] = field(default_factory=list)  # per-cell wall times, set by the runner


class Sweep:
    """abm_sweep and llm_mock: run_block over fixed grids, appending via RunStore."""

    def __init__(
        self, blocks: Sequence[BlockConfig], settings: RuntimeSettings, workers: int, tmp: Path
    ):
        self.blocks = tuple(blocks)
        self.settings = settings
        self.workers = workers
        self.tmp = tmp

    def run_pass(self) -> PassResult:
        pass_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        results = []
        t0 = time.perf_counter()
        for block in self.blocks:
            store = RunStore(pass_dir / f"{block.name}.runs.jsonl")
            results.append(run_block(block, self.settings, store=store, workers=self.workers))
        seconds = time.perf_counter() - t0
        shutil.rmtree(pass_dir)
        problems = []
        for block, records in zip(self.blocks, results):
            problems.extend(check_records(block, records))
        every = [r for records in results for r in records]
        trajectories = sum(r.episodes for r in every)
        return PassResult(
            seconds=seconds,
            ops=trajectories,
            turns=sum(r.episodes * r.horizon for r in every),
            failed=0,
            repairs=sum(r.repair_count * r.episodes for r in every),
            sha=records_sha(every),
            problems=problems,
        )


class Report:
    """report_stats: `apemo report` in-process over a pre-generated record set."""

    def __init__(self, blocks: Sequence[BlockConfig], settings: RuntimeSettings, tmp: Path):
        self.records_dir = tmp / "records"
        self.out_dir = tmp / "report"
        self.problems: list[str] = []
        generated = []
        for block in blocks:
            store = RunStore(self.records_dir / f"{block.name}.runs.jsonl")
            records = run_block(block, settings, store=store)
            self.problems.extend(check_records(block, records))
            generated.extend(records)
        self.records_sha = records_sha(generated)

    def run_pass(self) -> PassResult:
        argv = ["report", "--records", str(self.records_dir), "--out", str(self.out_dir)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        problems = [] if code == 0 else [f"report exited with code {code}"]
        return PassResult(
            seconds=seconds,
            ops=1,
            turns=0,
            failed=int(code != 0),
            repairs=0.0,
            sha=tree_sha(self.out_dir / "reports"),
            problems=problems,
        )

