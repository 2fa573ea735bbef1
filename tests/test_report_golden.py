"""Golden pin: the files `apemo report` writes, byte for byte.

Two small simulator grids are built here (a sim_long-shaped and a
sim_trap-shaped one, fixed seeds, not read from the default blocks), run
into record stores, and reported with the production resample count. The
hash covers every file under ``reports/`` in sorted path order. A change to
the statistics that moves any interval, p-value or table byte moves it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from apemo.abm import AbmConfig, TrapSpec
from apemo.benchmark import BlockConfig, RunStore, RuntimeSettings, run_block
from apemo.cli import main
from apemo.scheduler import PolicyKind

REPORT_GOLDEN_PREFIX = "d5ebca6e19efc541"

CONFIG = "stats_seed: 1234\nresamples: 10000\n"

GRIDS = (
    BlockConfig(
        name="golden_long",
        executor="abm",
        models=("abm-a", "abm-b"),
        horizon=8,
        episodes=2,
        budget_cap=680,
        policies=(PolicyKind.TASK_AFFECT, PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
        seeds=(3, 5, 8, 13),
        abm=AbmConfig(noise_sd=0.12),
    ),
    BlockConfig(
        name="golden_trap",
        executor="abm",
        models=("abm-a",),
        horizon=8,
        episodes=1,
        budget_cap=1600,
        policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
        seeds=(2, 4, 6, 9, 11, 15),
        trap=TrapSpec(trap_turn=4, severity=0.4, recovery_rate=0.3),
    ),
)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _report_digest(tmp_path: Path) -> str:
    """Run both grids into stores, report them, and hash every report file."""
    records_dir = tmp_path / "records"
    for grid in GRIDS:
        run_block(grid, RuntimeSettings(), store=RunStore(records_dir / f"{grid.name}.runs.jsonl"))
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    assert main(["report", "--config", str(config), "--records", str(records_dir)]) == 0
    reports = records_dir / "reports"
    assert {p.name for p in reports.iterdir()} >= {
        "golden_long.report.txt",
        "golden_trap.deltas.jsonl",
        "golden_trap.trap_series.csv",
        "frontier.csv",
    }
    return _tree_digest(reports)


def test_report_files_are_pinned(tmp_path):
    digest = _report_digest(tmp_path)
    assert digest[:16] == REPORT_GOLDEN_PREFIX, f"report files changed: sha256 {digest}"


def test_report_reads_interval_ends_without_np_quantile(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.quantile called on the report path")

    monkeypatch.setattr(np, "quantile", refuse)
    digest = _report_digest(tmp_path)
    assert digest[:16] == REPORT_GOLDEN_PREFIX, f"report files changed: sha256 {digest}"
