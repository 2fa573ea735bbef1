"""Spans around the package's public functions, installed from outside it.

The tracer replaces a function or method attribute with a wrapper that
records a span (id, name, start, end, parent span, trajectory span, error)
and restores the original on exit. The package itself is never edited. Spans
stay in memory and are written out when the run ends. A span name starts
with its layer (the ``src/apemo`` module it belongs to); a layer's self time
is its span time minus the time covered by child spans of other layers.

Two sets of points exist. ``probe_points`` times each cell and counts
failed turns (a first attempt whose executor raised, so the scheduler kept
a fallback outcome); it runs in every measured phase, because the end-to-end
per-cell latency and the failure count need it.
``layer_points`` adds every per-layer boundary and runs only in the traced
phase.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
import requests

from apemo import abm, benchmark, cli, llm, scheduler, signals, stats
from apemo.executor import ExecutorError

ID, NAME, START, END, PARENT, TRAJ, ERROR = range(7)

Observe = Callable[["Tracer", list, tuple, object], None]

# Per-layer metrics of the traced run: (name, unit). 0 where a layer does
# not run on a workload.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("abm.execute_turn.calls", "count"),
    ("abm.execute_turn.busy_s", "s"),
    ("abm.execute_turn.us_p50", "us"),
    ("signals.digest.calls", "count"),
    ("signals.digest.busy_s", "s"),
    ("signals.compute_proxies.calls", "count"),
    ("signals.compute_proxies.busy_s", "s"),
    ("signals.compute_proxies.us_p50", "us"),
    ("scheduler.run_trajectory.calls", "count"),
    ("scheduler.run_trajectory.ms_p50", "ms"),
    ("scheduler.self_s", "s"),
    ("scheduler.attempts_per_turn", "ratio"),
    ("scheduler.repair.granted", "count"),
    ("scheduler.repair.starved", "count"),
    ("scheduler.repair.retries", "count"),
    ("scheduler.repair.kept_ratio", "ratio"),
    ("scheduler.ledger.ops", "count"),
    ("scheduler.ledger.busy_s", "s"),
    ("benchmark.run_cell.ms_p50", "ms"),
    ("benchmark.aggregate_run.us_p50", "us"),
    ("benchmark.store.append.calls", "count"),
    ("benchmark.store.append.us_p50", "us"),
    ("benchmark.store.bytes_written", "B"),
    ("benchmark.store.load_s", "s"),
    ("llm.chat_complete.calls", "count"),
    ("llm.chat_complete.ms_p50", "ms"),
    ("llm.chat_complete.ms_p99", "ms"),
    ("llm.chat_complete.busy_s", "s"),
    ("llm.http.posts", "count"),
    ("llm.retries", "count"),
    ("llm.prompt_tokens", "count"),
    ("llm.completion_tokens", "count"),
    ("llm.fallbacks", "count"),
    ("llm.heuristic_quality.busy_s", "s"),
    ("mock_server.requests", "count"),
    ("mock_server.connections", "count"),
    ("stats.bootstrap_ci.calls", "count"),
    ("stats.bootstrap_ci.ms_p50", "ms"),
    ("stats.bootstrap_ci.busy_s", "s"),
    ("stats.bootstrap_ci.constant", "count"),
    ("stats.sign_test.busy_s", "s"),
    ("stats.block_report.busy_s", "s"),
    ("frontier.frontier_table.busy_s", "s"),
    ("cli.report.self_s", "s"),
    ("config.load_config.ms", "ms"),
    ("import_s", "s"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Installs span wrappers and keeps the spans and counters they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._kept_quality: dict[tuple[int, int], float] = {}
        self._file_sizes: dict[Path, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name: str, observe: Optional[Observe] = None) -> None:
        """Replace owner.attr (function, method or classmethod) with a span wrapper."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            replacement: object = classmethod(self._wrapper(static.__func__, name, observe))
        else:
            replacement = self._wrapper(static, name, observe)
        self._restore.append((owner, attr, static))
        setattr(owner, attr, replacement)

    def guard(self, owner: type, attr: str, key: str) -> None:
        """Count, under `key`, the ExecutorErrors that owner.attr raises on a first attempt.

        owner.attr is an executor's execute_turn(ctx, ...); retries
        (ctx.attempt > 0) are not counted, because a failed retry leaves the
        turn's kept outcome unchanged. No span is recorded.
        """
        fn = inspect.getattr_static(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def guarded(executor, ctx, *args, **kwargs):
            try:
                return fn(executor, ctx, *args, **kwargs)
            except ExecutorError:
                if ctx.attempt == 0:
                    tracer.count(key)
                raise

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, guarded)

    def _wrapper(self, fn: Callable, name: str, observe: Optional[Observe]) -> Callable:
        tracer = self
        is_trajectory = name == "scheduler.run_trajectory"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[NAME] == name:
                # from_text -> from_tokens: one digest, not two
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            traj = span_id if is_trajectory else (parent[TRAJ] if parent else None)
            span = [span_id, name, 0.0, 0.0, parent[ID] if parent else None, traj, False]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                observe(tracer, span, args, result)
            return result

        return traced

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, static = self._restore.pop()
            setattr(owner, attr, static)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def durations(self) -> dict[str, list[float]]:
        """Span durations grouped by span name."""
        grouped: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            grouped[s[NAME]].append(s[END] - s[START])
        return grouped

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s[ID],
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "trajectory": s[TRAJ],
                            "error": s[ERROR],
                        }
                    )
                    + "\n"
                )


def _observe_attempt(tracer: Tracer, span: list, args: tuple, result) -> None:
    """Mirror the scheduler's keep rule: a retry is kept if strictly better."""
    ctx = args[1]
    key = (span[TRAJ], ctx.turn)
    if ctx.attempt == 0:
        tracer._kept_quality[key] = result.quality
        tracer.count("turns")
        return
    tracer.count("retries")
    if result.quality > tracer._kept_quality.get(key, math.inf):
        tracer._kept_quality[key] = result.quality
        tracer.count("kept")


def _observe_grant(tracer: Tracer, span: list, args: tuple, result) -> None:
    tracer.count("granted" if result.granted_tokens > 0 else "starved")


def _observe_chat(tracer: Tracer, span: list, args: tuple, result) -> None:
    tracer.count("prompt_tokens", result.prompt_tokens)
    tracer.count("completion_tokens", result.completion_tokens)


def _observe_append(tracer: Tracer, span: list, args: tuple, result) -> None:
    # each pass appends to files that start empty, so their growth is what was written
    path = args[0].path
    size = path.stat().st_size
    with tracer._lock:
        tracer.counts["bytes_written"] += size - tracer._file_sizes.get(path, 0)
        tracer._file_sizes[path] = size


def _observe_bootstrap(tracer: Tracer, span: list, args: tuple, result) -> None:
    arr = np.asarray(args[0], dtype=float)
    if arr.size and bool(np.all(arr == arr[0])):
        tracer.count("bootstrap_constant")


def probe_points(tracer: Tracer) -> Tracer:
    """Per-cell timing and failed-turn counting, installed in every measured phase."""
    tracer.wrap(benchmark, "run_cell", "benchmark.run_cell")
    tracer.guard(abm.AbmExecutor, "execute_turn", "failed_turns")
    tracer.guard(llm.LlmExecutor, "execute_turn", "failed_turns")
    return tracer


def layer_points(tracer: Tracer) -> Tracer:
    """Every per-layer boundary, on top of the probe points."""
    probe_points(tracer)
    tracer.wrap(abm.AbmExecutor, "execute_turn", "abm.execute_turn", _observe_attempt)
    tracer.wrap(signals.TextDigest, "from_text", "signals.digest")
    tracer.wrap(signals.TextDigest, "from_tokens", "signals.digest")
    tracer.wrap(scheduler, "compute_proxies", "signals.compute_proxies")
    tracer.wrap(benchmark, "run_trajectory", "scheduler.run_trajectory")
    tracer.wrap(scheduler, "request_repair", "scheduler.request_repair", _observe_grant)
    for method in ("charge_policy", "charge_overhead", "add_reserve", "grant_repair", "refund_repair"):
        tracer.wrap(scheduler.BudgetLedger, method, f"scheduler.ledger.{method}")
    tracer.wrap(benchmark, "aggregate_run", "benchmark.aggregate_run")
    tracer.wrap(benchmark.RunStore, "append", "benchmark.store.append", _observe_append)
    tracer.wrap(benchmark.RunStore, "__init__", "benchmark.store.load")
    tracer.wrap(llm.LlmExecutor, "execute_turn", "llm.execute_turn", _observe_attempt)
    tracer.wrap(llm, "chat_complete", "llm.chat_complete", _observe_chat)
    tracer.wrap(requests, "post", "llm.http.post")
    tracer.wrap(llm, "heuristic_quality", "llm.heuristic_quality")
    tracer.wrap(stats, "bootstrap_ci", "stats.bootstrap_ci", _observe_bootstrap)
    tracer.wrap(stats, "sign_test", "stats.sign_test")
    tracer.wrap(cli, "block_report", "stats.block_report")
    tracer.wrap(cli, "frontier_table", "frontier.frontier_table")
    tracer.wrap(cli, "cmd_report", "cli.report")
    return tracer


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_seconds(tracer: Tracer, name: str) -> float:
    """Total time in `name` spans not covered by child spans of other layers."""
    names = {s[ID]: s[NAME] for s in tracer.spans}
    layer = _layer(name)
    total = 0.0
    for s in tracer.spans:
        if s[NAME] == name:
            total += s[END] - s[START]
        elif s[PARENT] is not None and names.get(s[PARENT]) == name and _layer(s[NAME]) != layer:
            total -= s[END] - s[START]
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the spans and counters of the traced phase."""
    d = tracer.durations().__getitem__
    c = tracer.counts
    ledger = [s[END] - s[START] for s in tracer.spans if s[NAME].startswith("scheduler.ledger.")]
    chat_ms = [x * 1e3 for x in d("llm.chat_complete")]
    posts = len(d("llm.http.post"))
    return {
        "abm.execute_turn.calls": len(d("abm.execute_turn")),
        "abm.execute_turn.busy_s": sum(d("abm.execute_turn")),
        "abm.execute_turn.us_p50": percentile(d("abm.execute_turn"), 50) * 1e6,
        "signals.digest.calls": len(d("signals.digest")),
        "signals.digest.busy_s": sum(d("signals.digest")),
        "signals.compute_proxies.calls": len(d("signals.compute_proxies")),
        "signals.compute_proxies.busy_s": sum(d("signals.compute_proxies")),
        "signals.compute_proxies.us_p50": percentile(d("signals.compute_proxies"), 50) * 1e6,
        "scheduler.run_trajectory.calls": len(d("scheduler.run_trajectory")),
        "scheduler.run_trajectory.ms_p50": percentile(d("scheduler.run_trajectory"), 50) * 1e3,
        "scheduler.self_s": self_seconds(tracer, "scheduler.run_trajectory"),
        "scheduler.attempts_per_turn": (
            (c["turns"] + c["retries"]) / c["turns"] if c["turns"] else 0.0
        ),
        "scheduler.repair.granted": c["granted"],
        "scheduler.repair.starved": c["starved"],
        "scheduler.repair.retries": c["retries"],
        "scheduler.repair.kept_ratio": c["kept"] / c["retries"] if c["retries"] else 0.0,
        "scheduler.ledger.ops": len(ledger),
        "scheduler.ledger.busy_s": sum(ledger),
        "benchmark.run_cell.ms_p50": percentile(d("benchmark.run_cell"), 50) * 1e3,
        "benchmark.aggregate_run.us_p50": percentile(d("benchmark.aggregate_run"), 50) * 1e6,
        "benchmark.store.append.calls": len(d("benchmark.store.append")),
        "benchmark.store.append.us_p50": percentile(d("benchmark.store.append"), 50) * 1e6,
        "benchmark.store.bytes_written": c["bytes_written"],
        "benchmark.store.load_s": sum(d("benchmark.store.load")),
        "llm.chat_complete.calls": len(chat_ms),
        "llm.chat_complete.ms_p50": percentile(chat_ms, 50),
        "llm.chat_complete.ms_p99": percentile(chat_ms, 99),
        "llm.chat_complete.busy_s": sum(chat_ms) / 1e3,
        "llm.http.posts": posts,
        "llm.retries": posts - len(chat_ms),
        "llm.prompt_tokens": c["prompt_tokens"],
        "llm.completion_tokens": c["completion_tokens"],
        "llm.fallbacks": sum(1 for s in tracer.spans if s[NAME] == "llm.execute_turn" and s[ERROR]),
        "llm.heuristic_quality.busy_s": sum(d("llm.heuristic_quality")),
        "stats.bootstrap_ci.calls": len(d("stats.bootstrap_ci")),
        "stats.bootstrap_ci.ms_p50": percentile(d("stats.bootstrap_ci"), 50) * 1e3,
        "stats.bootstrap_ci.busy_s": sum(d("stats.bootstrap_ci")),
        "stats.bootstrap_ci.constant": c["bootstrap_constant"],
        "stats.sign_test.busy_s": sum(d("stats.sign_test")),
        "stats.block_report.busy_s": sum(d("stats.block_report")),
        "frontier.frontier_table.busy_s": sum(d("frontier.frontier_table")),
        "cli.report.self_s": self_seconds(tracer, "cli.report"),
        "trace.spans": len(tracer.spans),
    }
