"""Set-up, timed phases, output checks and the result line of one benchmark run.

Imported by run.py once the package has been imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Optional

from apemo.config import load_config

from mock_child import MockServerProcess
from speed import SpeedProbe, speed_factor
from tracer import (
    END,
    LAYER_METRICS,
    NAME,
    START,
    Tracer,
    layer_metrics,
    layer_points,
    percentile,
    probe_points,
)
from workloads import (
    REPORT_LONG_SEEDS,
    REPORT_TRAP_SEEDS,
    PassResult,
    Report,
    Sweep,
    abm_grids,
    llm_grid,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
TRACE_PASSES = 3
CLIENT_THREADS = 2
SETUP_TIMEOUT_S = 120
MAX_PROBLEMS_SHOWN = 20

# End-to-end metrics: (name, unit). An operation is a cell (one run record)
# on the sweeps and one `report` invocation on report_stats; throughput counts
# trajectories per second on the sweeps and reports per second on
# report_stats. Every time is scaled to the machine's nominal speed
# (speed.py).
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Ready:
    """A set-up workload with what set-up measured."""

    workload: Sweep | Report
    load_config_ms: float
    server: Optional[MockServerProcess] = None


def client_threads() -> int:
    """CLIENT_THREADS, never more than the CPUs.

    llm_mock's client threads, and the copies of the reference loop run at
    once on every workload (speed.py).
    """
    return min(CLIENT_THREADS, os.cpu_count() or 1)


@contextlib.contextmanager
def open_workload(name: str, seed: int, tmp: Path) -> Iterator[Ready]:
    """Build the grids, start the child server or pre-generate records."""
    t0 = time.perf_counter()
    settings = load_config(None, include_default_blocks=False).settings
    load_ms = (time.perf_counter() - t0) * 1e3
    if name == "abm_sweep":
        yield Ready(Sweep(abm_grids(seed), settings, workers=1, tmp=tmp), load_ms)
    elif name == "llm_mock":
        with MockServerProcess() as server:
            endpoint = replace(settings.endpoint, base_url=server.url)
            sweep = Sweep([llm_grid(seed)], replace(settings, endpoint=endpoint), client_threads(), tmp)
            yield Ready(sweep, load_ms, server)
    else:
        grids = abm_grids(seed, REPORT_LONG_SEEDS, REPORT_TRAP_SEEDS)
        yield Ready(Report(grids, settings, tmp), load_ms)


def measure_setup(args: argparse.Namespace, reference: Callable[[], float]) -> list[tuple[float, float]]:
    """(wall seconds, speed factor) of set-ups, each in a fresh process.

    A set-up is the time from process start to workload ready. Each is
    bracketed by the reference loop like a timed pass: the host's speed
    changes within seconds, so one factor for the whole series tracks it
    worse than one per set-up.
    """
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    ref_before = reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up run failed (exit {proc.returncode})")
        ref_after = reference()
        times.append((elapsed, speed_factor(ref_before, ref_after)))
        ref_before = ref_after
    return times


def run_phase(
    ready: Ready,
    tracer: Tracer,
    reference: Callable[[], float],
    seconds: float = 0.0,
    passes: int = 1,
) -> list[PassResult]:
    """Run whole passes until `seconds` are measured and at least `passes` ran.

    Each pass is bracketed by the reference loop, and its per-cell times are
    taken from the tracer's run_cell spans.
    """
    done = []
    spent = 0.0
    ref_before = reference()
    while len(done) < passes or spent < seconds:
        mark = len(tracer.spans)
        result = ready.workload.run_pass()
        ref_after = reference()
        result.speed = speed_factor(ref_before, ref_after)
        result.cell_s = [
            s[END] - s[START] for s in tracer.spans[mark:] if s[NAME] == "benchmark.run_cell"
        ]
        done.append(result)
        spent += result.seconds
        ref_before = ref_after
    return done


def e2e_values(
    workload: str, timed: list[PassResult], setup: list[tuple[float, float]]
) -> dict[str, float]:
    """End-to-end metrics; every time is scaled by the speed factor measured around it."""
    if workload == "report_stats":
        latencies = [p.seconds * p.speed * 1e3 for p in timed]
    else:
        latencies = [x * p.speed * 1e3 for p in timed for x in p.cell_s]
    return {
        "setup_s": statistics.median(seconds * speed for seconds, speed in setup),
        "throughput_per_s": statistics.median(p.ops / (p.seconds * p.speed) for p in timed),
        "latency_ms_p50": percentile(latencies, 50),
        "latency_ms_p90": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args: argparse.Namespace, import_s: float) -> int:
    """One benchmark run; prints the result line last and returns the exit code."""
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if args.setup_only:
            with open_workload(args.workload, args.seed, tmp):
                print("ready", flush=True)
            return 0
        return _measure(args, import_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args: argparse.Namespace, import_s: float, tmp: Path) -> int:
    traced: list[PassResult] = []
    tracer: Optional[Tracer] = None
    server_counts: dict[str, int] = {}
    with SpeedProbe(client_threads()) as speed:
        reference = speed.reference_seconds
        setup = [] if args.trace else measure_setup(args, reference)
        with open_workload(args.workload, args.seed, tmp) as ready:
            warmup = ready.workload.run_pass()
            with probe_points(Tracer()) as probe:
                seconds = args.seconds / 2 if args.trace else args.seconds
                timed = run_phase(ready, probe, reference, seconds)
            if args.trace:
                before = ready.server.stats() if ready.server else {}
                with layer_points(Tracer()) as tracer:
                    traced = run_phase(ready, tracer, reference, passes=TRACE_PASSES)
                after = ready.server.stats() if ready.server else {}
                server_counts = {f"mock_server.{k}": after[k] - before[k] for k in after}
    if ready.server is not None:
        print(f"mock_server at shutdown: {json.dumps(ready.server.final)}")

    problems = check_outputs(args.workload, ready.workload, warmup, [*timed, *traced])
    measured = [*timed, *traced]
    if isinstance(ready.workload, Report):
        attempted = sum(p.ops for p in measured)
        failed = sum(p.failed for p in measured)
    else:
        attempted = sum(p.turns for p in measured)
        failed = sum(t.counts["failed_turns"] for t in (probe, tracer) if t)

    if tracer is not None:
        values = layer_metrics(tracer)
        values.update(server_counts)
        if args.workload == "llm_mock" and values["scheduler.repair.granted"] <= 0:
            problems.append("llm_mock traced no granted repair")
        untraced_s = statistics.median(p.seconds * p.speed for p in timed)
        traced_s = statistics.median(p.seconds * p.speed for p in traced)
        values["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
        values["config.load_config.ms"] = ready.load_config_ms
        values["import_s"] = import_s
        values["fail_ratio"] = failed / attempted
        metrics = {n: {"value": values.get(n, 0), "unit": u} for n, u in LAYER_METRICS}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"traced {len(traced)} passes; median pass at nominal speed: untraced "
              f"{untraced_s:.4f} s, traced {traced_s:.4f} s; "
              f"spans: {spans_path.relative_to(ROOT)}")
        for n, u in LAYER_METRICS:
            print(f"  {n:<34} {metrics[n]['value']:>14.6g} {u}")
    else:
        values = e2e_values(args.workload, timed, setup)
        wall = e2e_values(
            args.workload, [replace(p, speed=1.0) for p in timed], [(t, 1.0) for t, _ in setup]
        )
        metrics = {n: {"value": values[n], "unit": u} for n, u in E2E_METRICS}
        if isinstance(ready.workload, Report):
            samples = f"{len(timed)} report invocations"
        else:
            samples = f"{sum(len(p.cell_s) for p in timed)} cells"
        print(f"{len(timed)} timed passes, {samples} timed; median speed factor "
              f"{statistics.median(p.speed for p in timed):.4f}, over set-ups "
              f"{statistics.median(f for _, f in setup):.4f}")
        print(f"  {'metric':<18} {'nominal speed':>14} {'wall clock':>14}")
        for n, u in E2E_METRICS:
            print(f"  {n:<18} {values[n]:>14.6g} {wall[n]:>14.6g} {u}")

    problems = list(dict.fromkeys(problems))  # each pass repeats its grid's problems
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"CHECK FAILED: {len(problems) - MAX_PROBLEMS_SHOWN} more problems")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def check_outputs(
    name: str, workload: Sweep | Report, warmup: PassResult, measured: list[PassResult]
) -> list[str]:
    """Every output check of the run; prints the output hashes."""
    problems = [problem for p in (warmup, *measured) for problem in p.problems]
    if any(p.sha != warmup.sha for p in measured):
        problems.append("output sha differs between rounds or between traced and untraced")
    if isinstance(workload, Report):
        problems.extend(workload.problems)
        print(f"records_sha {name} {workload.records_sha}")
        print(f"reports_sha {name} {warmup.sha}")
    else:
        print(f"records_sha {name} {warmup.sha}")
    if name == "llm_mock" and warmup.repairs <= 0:
        problems.append("llm_mock ran no repair")
    return problems
