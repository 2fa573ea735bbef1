"""Command-line interface: simulate, run-llm, report, validate-config.

Exit codes: 0 success, 2 configuration or store error (a store holds one
block, horizon, episode count, trap turn and simulator stream, and one record
per run key; report reads one store per block), 3 transport/preflight error,
4 empty input. The records, the manifest and the .jsonl reports carry the
schema version; report outputs are deterministic given (config, seeds, stats
seed), so reruns are byte-identical and safe to diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .abm import STREAM_VERSION
from .benchmark import (
    RunRecord,
    RunStore,
    SCHEMA_VERSION,
    StoreError,
    check_store,
    no_fallback_rate,
    run_block,
)
from .config import AppConfig, ConfigError, load_config
from .frontier import format_frontier_table, frontier_csv, frontier_table, viability
from .llm import TransportError
from .scheduler import PolicyKind
from .stats import REPORT_METRICS, TRAP_METRICS, block_report, format_block_table, pair_key
from .tasks import TASKS_VERSION

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_EMPTY = 4

POLICIES = [p.value for p in PolicyKind]


def _int_at_least(low: int):
    """argparse type for an int flag; a bad value exits 2 with the flag named."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apemo",
        description="Budget-scheduled multi-turn trajectory experiments and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="YAML config file (defaults are built in)")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir)")

    p_sim = sub.add_parser("simulate", help="run a simulator block")
    common(p_sim)
    p_sim.add_argument("--block", required=True, help="block name from the config")
    p_sim.add_argument("--workers", type=_int_at_least(1), default=None)
    p_sim.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                       help="skip cells already persisted (default: on)")

    p_llm = sub.add_parser("run-llm", help="run a model-server block")
    common(p_llm)
    p_llm.add_argument("--block", required=True)
    p_llm.add_argument("--workers", type=_int_at_least(1), default=None)
    p_llm.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True)

    p_rep = sub.add_parser("report", help="delta tables, frontier, and plot CSVs from records")
    common(p_rep)
    p_rep.add_argument("--records", default=None, help="records directory (default: output dir)")
    p_rep.add_argument("--baselines", nargs="*", default=None, choices=POLICIES,
                       help="baseline policies (default: every non-target policy present)")
    p_rep.add_argument("--target", default="apemo", choices=POLICIES)
    p_rep.add_argument("--stats-seed", type=_int_at_least(0), default=None)

    p_val = sub.add_parser("validate-config", help="parse and validate a config file")
    p_val.add_argument("--config", default=None)
    return parser


def _write_manifest(cfg: AppConfig, out_dir: Path, workers: int) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "stream_version": STREAM_VERSION,
        "config_path": cfg.source_path or "<defaults>",
        "config_hash": cfg.config_hash(),
        "output_dir": str(out_dir),
        "stats_seed": cfg.stats_seed,
        "worker_limit": workers,
        "tasks_version": TASKS_VERSION,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _run_block_command(args: argparse.Namespace, executor_kind: str) -> int:
    cfg = load_config(args.config)
    block = cfg.blocks.get(args.block)
    if block is None:
        available = ", ".join(sorted(cfg.blocks))
        print(f"error: unknown block {args.block!r}; available: {available}", file=sys.stderr)
        return EXIT_CONFIG
    if block.executor != executor_kind:
        print(
            f"error: block {args.block!r} uses executor {block.executor!r}; "
            f"this command runs {executor_kind!r} blocks",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    out_dir = Path(args.out or cfg.output_dir)
    workers = args.workers if args.workers is not None else cfg.workers
    runs_path = out_dir / f"{block.name}.runs.jsonl"
    if not args.resume and runs_path.exists():
        runs_path.unlink()
    out_dir.mkdir(parents=True, exist_ok=True)
    store = RunStore(runs_path)
    check_store(block, store)  # before the manifest names this build's stream
    _write_manifest(cfg, out_dir, workers)

    def on_record(record: RunRecord, resumed: bool) -> None:
        tag = " (resumed)" if resumed else ""
        print(
            f"run model={record.model_id} seed={record.seed} policy={record.policy} "
            f"T={record.horizon} mean_quality={record.mean_quality:.4f} "
            f"cost={record.total_cost:.0f}{tag}"
        )

    records = run_block(block, cfg.settings, store=store, workers=workers, on_record=on_record)
    rate = no_fallback_rate(records)
    print(
        f"block {block.name}: {len(records)} runs "
        f"({block.runs_per_policy} per policy), no_fallback_rate={rate:.4f}"
    )
    print(f"records: {runs_path}")
    return EXIT_OK


def _load_records(cfg: AppConfig, records_dir: Path) -> dict[str, list[RunRecord]]:
    """Records by block, one store each; a store of a config block must pass
    check_store."""
    stores: dict[str, RunStore] = {}
    for path in sorted(records_dir.glob("*.runs.jsonl")):
        store = RunStore(path)
        if store.stamp is None:
            continue
        name = store.stamp.block
        if name in stores:
            raise StoreError(
                f"{stores[name].path} and {path} both hold records of block {name!r}; "
                "report reads one store per block, so move or merge one of them"
            )
        if name in cfg.blocks:
            check_store(cfg.blocks[name], store)
        stores[name] = store
    return {name: store.records() for name, store in stores.items()}


# the files report writes; an earlier run's are deleted once the records load,
# so none outlives a run that no longer writes it
_REPORT_FILES = ("*.report.txt", "*.deltas.jsonl", "*.trap_series.csv", "frontier.*")


def cmd_report(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    records_dir = Path(args.records or args.out or cfg.output_dir)
    blocks = _load_records(cfg, records_dir)
    if not blocks:
        print(f"error: no run records found under {records_dir}", file=sys.stderr)
        return EXIT_EMPTY
    report_dir = Path(args.out or records_dir) / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    for pattern in _REPORT_FILES:
        for path in report_dir.glob(pattern):
            path.unlink()
    stats_seed = args.stats_seed if args.stats_seed is not None else cfg.stats_seed

    # each compared block, narrowed to the target and its chosen baselines
    compared: dict[str, list[RunRecord]] = {}
    draws: dict = {}  # resample indices by (pairs, resamples, seed), for this report only
    for name in sorted(blocks):
        records = blocks[name]
        runs: dict[str, set[tuple]] = {}  # policy -> the pair keys of its runs
        for r in records:
            runs.setdefault(r.policy, set()).add(pair_key(r))
        if args.target not in runs:
            print(f"block {name}: target {args.target!r} absent; skipping deltas")
            continue
        baselines = []
        candidates = args.baselines or [p for p in sorted(runs) if p != args.target]
        for baseline in dict.fromkeys(candidates):  # a baseline named twice is compared once
            if baseline == args.target:
                print(f"block {name}: baseline {baseline!r} is the target; skipping it")
            elif baseline not in runs:
                print(f"block {name}: baseline {baseline!r} absent; skipping it")
            elif runs[baseline].isdisjoint(runs[args.target]):
                print(f"block {name}: baseline {baseline!r} shares no (model, seed, horizon, "
                      "episodes) run with the target; skipping it")
            else:
                baselines.append(baseline)
        if not baselines:
            print(f"block {name}: no baseline to compare {args.target!r} with; skipping its report")
            continue
        kept = {args.target, *baselines}
        compared[name] = [r for r in records if r.policy in kept]
        metrics = list(REPORT_METRICS)
        is_trap = any(r.trap_turn is not None for r in records)
        if is_trap:
            metrics.extend(TRAP_METRICS)
        report = block_report(
            records,
            baselines=baselines,
            metrics=metrics,
            target=args.target,
            resamples=cfg.resamples,
            stats_seed=stats_seed,
            draws=draws,
        )
        table = format_block_table(report)
        print(table)
        (report_dir / f"{name}.report.txt").write_text(table, encoding="utf-8")
        with (report_dir / f"{name}.deltas.jsonl").open("w", encoding="utf-8") as fh:
            header = {
                "block": report.block,
                "target": report.target,
                "gate": report.gate,
                "stats_seed": report.stats_seed,
                "directional_only": report.directional_only,
                "schema_version": SCHEMA_VERSION,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for row in report.rows:
                fh.write(json.dumps(row.to_dict(), sort_keys=True) + "\n")
        if is_trap:
            _write_trap_series(report_dir / f"{name}.trap_series.csv", records)

    if not compared:
        requested = args.baselines or "any other policy"
        print(
            f"error: no block compares target {args.target!r} with baselines {requested}",
            file=sys.stderr,
        )
        return EXIT_EMPTY
    _emit_frontier(compared, report_dir, args.target)
    print(f"reports: {report_dir}")
    return EXIT_OK


def _write_trap_series(path: Path, records: Sequence[RunRecord]) -> None:
    """Per-turn mean quality/frustration by policy, for trap-dynamics plots."""
    by_policy: dict[str, list[RunRecord]] = {}
    for r in records:
        by_policy.setdefault(r.policy, []).append(r)
    lines = ["policy,turn,mean_quality,mean_frustration"]
    for policy in sorted(by_policy):
        rows = by_policy[policy]
        horizon = rows[0].horizon
        for t in range(horizon):
            q = sum(r.quality_by_turn[t] for r in rows) / len(rows)
            s = sum(r.frustration_by_turn[t] for r in rows) / len(rows)
            lines.append(f"{policy},{t + 1},{q:.6f},{s:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit_frontier(
    blocks: dict[str, list[RunRecord]], report_dir: Path, target: str
) -> None:
    points, skipped = frontier_table(blocks, target=target)
    for note in skipped:
        print(f"frontier: skipped {note}")
    if not points:
        return
    table = format_frontier_table(points)
    print(table)
    (report_dir / "frontier.csv").write_text(frontier_csv(points), encoding="utf-8")
    with (report_dir / "frontier.jsonl").open("w", encoding="utf-8") as fh:
        for p in points:
            v = viability(p)
            fh.write(
                json.dumps(
                    {
                        "label": p.label,
                        "gain_pct": p.gain,
                        "cost_pct": p.cost_increase,
                        "viable": v.viable,
                        "ratio": None if v.ratio == float("inf") else v.ratio,
                        "raw": p.raw,
                        "schema_version": SCHEMA_VERSION,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    (report_dir / "frontier.txt").write_text(table, encoding="utf-8")


def cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    print(f"config ok (hash {cfg.config_hash()})")
    for name in sorted(cfg.blocks):
        block = cfg.blocks[name]
        print(
            f"  block {name}: executor={block.executor} T={block.horizon} "
            f"episodes={block.episodes} cap={block.budget_cap} "
            f"policies={[p.value for p in block.policies]} "
            f"runs_per_policy={block.runs_per_policy}"
        )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_block_command(args, "abm")
        if args.command == "run-llm":
            return _run_block_command(args, "llm")
        if args.command == "report":
            return cmd_report(args)
        if args.command == "validate-config":
            return cmd_validate_config(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
