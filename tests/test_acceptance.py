"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred.
"""

from __future__ import annotations

import json
import random
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

from apemo.abm import AbmConfig, AbmExecutor, TrapSpec
from apemo.benchmark import (
    BlockConfig,
    RunRecord,
    RuntimeSettings,
    SCHEMA_VERSION,
    run_block,
    trap_metrics,
)
from apemo.cli import main
from apemo.frontier import FrontierPoint, dominates, frontier_table, pareto_front, viability
from apemo.llm import DecodingParams, LlmExecutor, ModelEndpoint
from apemo.mock_server import MockModelServer
from apemo.scheduler import (
    POLICY_TRAITS,
    DetectionConfig,
    PolicyKind,
    SchedulerConfig,
    run_trajectory,
)
from apemo.stats import bootstrap_ci, sign_test
from apemo.trajectory import (
    CostBreakdown,
    ObjectiveWeights,
    Trajectory,
    TurnRecord,
    peak_end_quality,
)

from hostile_executors import HOSTILE_EXECUTORS


def _report(ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_criterion_01_budget_safety_fuzz():
    # 10,000 random (policy, config, seed) trajectories, zero cap violations
    start = time.monotonic()
    rng = random.Random(424242)
    policies = list(PolicyKind)
    violations = 0
    for trial in range(10_000):
        policy = policies[rng.randrange(len(policies))]
        horizon = rng.randint(1, 10)
        cap = rng.randint(horizon, 4000)
        cfg = SchedulerConfig(
            detection=DetectionConfig(
                quality_floor=rng.uniform(0.0, 0.9),
                drop_threshold=rng.uniform(0.01, 0.5),
                frustration_threshold=rng.uniform(0.2, 1.2),
            ),
            skim_fraction=rng.uniform(0.0, 0.5),
            monitor_overhead=rng.randint(0, 40),
            max_repairs=rng.randint(0, 3),
            repair_factor=rng.uniform(0.5, 2.5),
            ending_threshold=rng.uniform(0.0, 1.0),
        )
        trap = None
        if horizon >= 2 and rng.random() < 0.4:
            trap = TrapSpec(rng.randint(1, horizon), rng.uniform(0.1, 1.0),
                            rng.uniform(0.0, 1.0))
        abm = AbmConfig(
            initial_quality=rng.uniform(0.1, 0.9),
            drift_rate=rng.uniform(-0.08, 0.04),
            noise_sd=rng.uniform(0.0, 0.25),
            digest_tokens=12,
        )
        executor = AbmExecutor(abm, trial, trap=trap)
        traj = run_trajectory(POLICY_TRAITS[policy], executor, horizon, cap, trial, cfg)
        if traj.cost.total > cap:
            violations += 1
    elapsed = time.monotonic() - start
    _report(violations == 0 and elapsed < 60.0,
            f"criterion 1 budget safety (0 violations in 10000, {elapsed:.1f}s < 60s)")


def test_criterion_01b_hostile_executor_budget_fuzz():
    # every policy against every hostile executor (over-reporting, failing
    # retries, zero tokens) under random configs: zero cap violations, the
    # turns account for every charged token, and fallback marks exactly the
    # trajectories where an attempt raised
    start = time.monotonic()
    rng = random.Random(515151)
    violations = failed = repaired = trials = 0
    for policy in PolicyKind:
        for hostile in HOSTILE_EXECUTORS:
            for _ in range(100):
                horizon = rng.randint(1, 10)
                cap = rng.randint(horizon, 4000)
                cfg = SchedulerConfig(
                    detection=DetectionConfig(
                        quality_floor=rng.uniform(0.0, 0.9),
                        drop_threshold=rng.uniform(0.01, 0.5),
                        frustration_threshold=rng.uniform(0.2, 1.2),
                    ),
                    skim_fraction=rng.uniform(0.0, 0.5),
                    monitor_overhead=rng.randint(0, 40),
                    max_repairs=rng.randint(0, 3),
                    repair_factor=rng.uniform(0.5, 2.5),
                    ending_threshold=rng.uniform(0.0, 1.0),
                )
                trap = None
                if horizon >= 2 and rng.random() < 0.4:
                    trap = TrapSpec(rng.randint(1, horizon), rng.uniform(0.1, 1.0),
                                    rng.uniform(0.0, 1.0))
                abm = AbmConfig(
                    initial_quality=rng.uniform(0.1, 0.9),
                    drift_rate=rng.uniform(-0.08, 0.04),
                    noise_sd=rng.uniform(0.0, 0.25),
                    digest_tokens=12,
                )
                executor = hostile(AbmExecutor(abm, trials, trap=trap))
                traj = run_trajectory(POLICY_TRAITS[policy], executor, horizon, cap, trials, cfg)
                spent = sum(t.tokens_spent for t in traj.turns)
                if (traj.cost.total > cap
                        or spent != traj.cost.policy_cost + traj.cost.repair_cost
                        or traj.fallback != executor.failed):
                    violations += 1
                failed += executor.failed
                repaired += sum(t.repaired for t in traj.turns)
                trials += 1
    elapsed = time.monotonic() - start
    _report(violations == 0 and failed > 0 and repaired > 0 and elapsed < 60.0,
            f"criterion 1b hostile-executor budget safety (0 violations in {trials}, "
            f"{failed} with a failed retry, {repaired} repaired turns, {elapsed:.1f}s < 60s)")


def test_criterion_02_peak_end_oracle():
    # brute-force evaluation (explicit max scan + ending mean) within 1e-12
    rng = random.Random(7)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 20)
        qs = [rng.random() for _ in range(n)]
        pw = rng.random()
        weights = ObjectiveWeights(peak_weight=pw, end_weight=1.0 - pw)
        turns = tuple(
            TurnRecord(index=i + 1, quality=q, frustration=0.0, tokens_spent=1)
            for i, q in enumerate(qs)
        )
        traj = Trajectory(turns=turns, budget_cap=n, cost=CostBreakdown(policy_cost=n))
        peak = qs[0]
        for q in qs[1:]:
            if q > peak:
                peak = q
        ending = qs[0] if n == 1 else (qs[-2] + qs[-1]) / 2.0
        expected = pw * peak + (1.0 - pw) * ending
        worst = max(worst, abs(peak_end_quality(traj, weights) - expected))
    _report(worst <= 1e-12, f"criterion 2 peak-end oracle (max error {worst:.2e} <= 1e-12)")


def test_criterion_03_policy_reduction():
    # skim=0 and unreachable thresholds (and no monitoring overhead, so the
    # allocations coincide) make the temporal loop bit-identical to uniform
    cfg = SchedulerConfig(
        detection=DetectionConfig(quality_floor=0.0, drop_threshold=0.2,
                                  frustration_threshold=1.5),
        skim_fraction=0.0,
        monitor_overhead=0,
    )
    abm = AbmConfig()
    mismatches = 0
    for seed in range(100):
        a = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], AbmExecutor(abm, seed), 8, 1600, seed, cfg)
        u = run_trajectory(POLICY_TRAITS[PolicyKind.UNIFORM], AbmExecutor(abm, seed), 8, 1600, seed, cfg)
        if a != u:
            mismatches += 1
    _report(mismatches == 0, "criterion 3 policy reduction (100/100 seeds bit-identical)")


def _trap_block(seeds, name="acc_trap") -> BlockConfig:
    return BlockConfig(
        name=name,
        executor="abm",
        models=("abm-a",),
        horizon=8,
        episodes=1,
        budget_cap=1600,
        policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
        seeds=tuple(seeds),
        trap=TrapSpec(trap_turn=4, severity=0.4),
    )


def test_criterion_04_trap_endpoint_direction():
    # trap block, T=8, trap at 4, severity 0.4, n=50: endpoint delta > 0
    # with a 95% bootstrap CI excluding zero (direction only)
    start = time.monotonic()
    records = run_block(_trap_block(range(1, 51)), RuntimeSettings())
    by_policy: dict[str, dict[int, RunRecord]] = {"apemo": {}, "task_peak_end": {}}
    for r in records:
        by_policy[r.policy][r.seed] = r
    deltas = [
        by_policy["apemo"][s].endpoint_quality - by_policy["task_peak_end"][s].endpoint_quality
        for s in range(1, 51)
    ]
    low, high = bootstrap_ci(deltas, resamples=10_000, coverage=0.95, seed=99)
    mean = float(np.mean(deltas))
    elapsed = time.monotonic() - start
    _report(mean > 0 and low > 0 and elapsed < 120.0,
            f"criterion 4 trap endpoint direction (mean {mean:+.4f}, CI [{low:+.4f},{high:+.4f}], "
            f"{elapsed:.1f}s < 120s)")


def test_criterion_05_horizon_ordering():
    # apemo-vs-uniform mean quality gain grows with depth: gain(T=8) > gain(T=2)
    cfg = SchedulerConfig()
    abm = AbmConfig(noise_sd=0.12)

    def gain(horizon: int) -> float:
        gains = []
        for seed in range(1, 51):
            a = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], AbmExecutor(abm, seed),
                               horizon, 680, seed, cfg)
            u = run_trajectory(POLICY_TRAITS[PolicyKind.UNIFORM], AbmExecutor(abm, seed),
                               horizon, 680, seed, cfg)
            gains.append(sum(a.qualities()) / horizon - sum(u.qualities()) / horizon)
        return float(np.mean(gains))

    g8, g2 = gain(8), gain(2)
    _report(g8 > g2, f"criterion 5 horizon ordering (gain T=8 {g8:+.4f} > gain T=2 {g2:+.4f})")


def test_criterion_06_sign_test_oracle():
    # exact equality with direct binomial pmf summation for all n <= 12
    exact = True
    for n in range(1, 13):
        for wins in range(n + 1):
            deltas = [1.0] * wins + [-1.0] * (n - wins)
            lo = sum(comb(n, i) for i in range(0, wins + 1)) / 2**n
            hi = sum(comb(n, i) for i in range(wins, n + 1)) / 2**n
            expected = min(1.0, 2 * min(lo, hi))
            if sign_test(deltas).p_value != pytest.approx(expected, abs=1e-15):
                exact = False
    five_zero = sign_test([1.0] * 5).p_value
    _report(exact and five_zero == 0.0625,
            f"criterion 6 sign-test oracle (enumeration exact, 5-0 case = {five_zero})")


def test_criterion_07_bootstrap_coverage():
    # Monte Carlo coverage of the true mean in [0.90, 0.99] over 500 datasets
    rng = np.random.default_rng(2025)
    covered = 0
    trials = 500
    for i in range(trials):
        data = rng.normal(0.0, 1.0, size=50).tolist()
        low, high = bootstrap_ci(data, resamples=2000, coverage=0.95, seed=i)
        if low <= 0.0 <= high:
            covered += 1
    coverage = covered / trials
    degenerate = bootstrap_ci([0.3] * 20, resamples=2000, seed=1) == (0.3, 0.3)
    _report(0.90 <= coverage <= 0.99 and degenerate,
            f"criterion 7 bootstrap behavior (coverage {coverage:.3f} in [0.90, 0.99], "
            f"constant interval degenerate)")


def test_criterion_08_pareto_oracle():
    # sweep implementation equals O(n^2) brute force on 200-point sets, 100 trials
    rng = random.Random(31337)
    all_match = True
    for _ in range(100):
        points = [
            FrontierPoint(
                label=f"p{i}",
                gain=rng.choice([rng.uniform(-20, 60), float(rng.randint(-5, 10))]),
                cost_increase=rng.choice([rng.uniform(0, 30), float(rng.randint(0, 6))]),
            )
            for i in range(200)
        ]
        brute = {
            p.label for p in points
            if not any(dominates(q, p) for q in points if q is not p)
        }
        fast = pareto_front(points)
        if {p.label for p in fast} != brute:
            all_match = False
        if {p.label for p in pareto_front(fast)} != {p.label for p in fast}:
            all_match = False
    _report(all_match, "criterion 8 pareto oracle (100/100 trials match brute force, idempotent)")


def test_criterion_09_frontier_table_reference_arithmetic():
    # reference long-horizon row: +14.49% quality gain, +6.28% cost increase,
    # viable; formula check against matching raw means, tolerance 0.01pp
    baseline_mean, delta = 0.5459, 0.0791
    records = []
    for seed in range(10):
        for policy, quality, cost in (
            ("apemo", baseline_mean + delta, 5314.0),
            ("task_peak_end", baseline_mean, 5000.0),
        ):
            records.append(RunRecord(
                schema_version=SCHEMA_VERSION, block="long_horizon", model_id="m",
                seed=seed, policy=policy, horizon=8, episodes=2,
                mean_quality=quality, peak_end_quality=quality,
                endpoint_quality=quality, reuse_probability=0.5,
                reuse_per_cost=0.1, avg_frustration=0.2, total_cost=cost,
                policy_cost=cost, repair_cost=0.0, overhead_cost=0.0,
                repair_count=0.0, fallback=False,
                quality_by_turn=tuple([quality] * 8),
                frustration_by_turn=tuple([0.2] * 8),
            ))
    points, skipped = frontier_table({"long_horizon": records})
    (row,) = points
    ok = (
        not skipped
        and abs(row.gain - 14.49) <= 0.01
        and abs(row.cost_increase - 6.28) <= 0.01
        and viability(row).viable
    )
    _report(ok, f"criterion 9 frontier arithmetic (gain {row.gain:+.2f}% cost "
                f"{row.cost_increase:+.2f}% viable={viability(row).viable})")


def test_criterion_10_wire_protocol_conformance():
    # exact per-turn caps, identical decoding across policies, exact usage
    horizon, cap = 4, 400
    cfg = SchedulerConfig(monitor_overhead=0)
    expected_caps = {
        PolicyKind.UNIFORM: [100, 100, 100, 100],
        PolicyKind.APEMO: [80, 80, 100, 100],  # skim 0.2 on turns 1..T-2
    }

    def good_answer(body: dict, i: int) -> str:
        return ("We plan a direct route now, estimate every cost, "
                "list risks, and close cleanly.")

    transcripts: dict[PolicyKind, list[dict]] = {}
    trajectories: dict[PolicyKind, Trajectory] = {}
    for policy in (PolicyKind.UNIFORM, PolicyKind.APEMO):
        with MockModelServer(script=good_answer) as server:
            endpoint = ModelEndpoint(base_url=server.url, model_id="test-model",
                                     timeout=5.0, max_retries=0, backoff_base=0.01)
            executor = LlmExecutor(endpoint, topology="single",
                                   decoding=DecodingParams(temperature=0.2, top_p=0.9))
            trajectories[policy] = run_trajectory(POLICY_TRAITS[policy], executor, horizon, cap, 5, cfg)
            transcripts[policy] = list(server.transcript)

    caps_ok = all(
        [b["options"]["num_predict"] for b in transcripts[p]] == expected_caps[p]
        for p in transcripts
    )
    # static sampling parameters are identical on every request of the block,
    # and matched requests across policies differ only in the max-token field
    static_sets = {
        json.dumps({"temperature": b["options"]["temperature"],
                    "top_p": b["options"]["top_p"]}, sort_keys=True)
        for p in transcripts
        for b in transcripts[p]
    }
    matched_ok = all(
        {k: v for k, v in a["options"].items() if k != "num_predict"}
        == {k: v for k, v in b["options"].items() if k != "num_predict"}
        for a, b in zip(transcripts[PolicyKind.UNIFORM], transcripts[PolicyKind.APEMO])
    )
    decoding_ok = len(static_sets) == 1 and matched_ok
    # mock reports eval_count = min(num_predict, reply length); the turn's
    # tokens_spent must equal the server-reported usage exactly
    reply_tokens = len(good_answer({}, 0).split())
    usage_ok = True
    for p, traj in trajectories.items():
        reported = [min(b["options"]["num_predict"], reply_tokens) for b in transcripts[p]]
        if [t.tokens_spent for t in traj.turns] != reported:
            usage_ok = False

    # flow overlay: identical request sequence except the max-token field
    flow_transcripts = {}
    for policy in (PolicyKind.FLOW_PLAIN, PolicyKind.FLOW_TEMPORAL):
        with MockModelServer() as server:
            endpoint = ModelEndpoint(base_url=server.url, model_id="test-model",
                                     timeout=5.0, max_retries=0, backoff_base=0.01)
            executor = LlmExecutor(endpoint, topology="flow")
            run_trajectory(POLICY_TRAITS[policy], executor, 2, 1200, 5, cfg)
            flow_transcripts[policy] = list(server.transcript)
    a, b = flow_transcripts[PolicyKind.FLOW_PLAIN], flow_transcripts[PolicyKind.FLOW_TEMPORAL]

    def strip_caps(transcript):
        out = []
        for body in transcript:
            c = json.loads(json.dumps(body))
            c["options"].pop("num_predict")
            out.append(c)
        return out

    overlay_ok = len(a) == len(b) and strip_caps(a) == strip_caps(b)
    _report(caps_ok and decoding_ok and usage_ok and overlay_ok,
            "criterion 10 wire conformance (caps exact, decoding constant, usage exact, "
            "overlay differs only in max tokens)")


def test_criterion_11_trap_metric_definitions():
    qualities = [0.8, 0.8, 0.3, 0.5, 0.7, 0.75]
    frustrations = [0.2, 0.2, 0.8, 0.6, 0.3, 0.2]
    turns = tuple(
        TurnRecord(index=i + 1, quality=q, frustration=f, tokens_spent=10)
        for i, (q, f) in enumerate(zip(qualities, frustrations))
    )
    traj = Trajectory(turns=turns, budget_cap=60, cost=CostBreakdown(policy_cost=60))
    m = trap_metrics(traj, 3)
    flat = Trajectory(
        turns=tuple(TurnRecord(index=i + 1, quality=0.6, frustration=0.1, tokens_spent=10)
                    for i in range(6)),
        budget_cap=60, cost=CostBreakdown(policy_cost=60),
    )
    fm = trap_metrics(flat, 3)
    guard_ok = False
    try:
        trap_metrics(flat, 6)
    except ValueError:
        guard_ok = True
    ok = (
        m["quality_drop"] == pytest.approx(0.5)
        and m["quality_rebound2"] == pytest.approx(0.4)
        and m["frustration_drop2"] == pytest.approx(0.5)
        and m["endpoint_quality"] == pytest.approx(0.75)
        and fm["quality_drop"] == pytest.approx(0.0)
        and fm["quality_rebound2"] == pytest.approx(0.0)
        and guard_ok
    )
    _report(ok, "criterion 11 trap metric definitions (index arithmetic exact)")


ACC_CONFIG = """
stats_seed: 11
resamples: 2000
blocks:
  accdet:
    executor: abm
    models: [abm-a, abm-b]
    horizon: 6
    episodes: 2
    budget_cap: 900
    policies: [uniform, task_peak_end, apemo]
    seeds: {count: 5, start: 1}
    abm: {noise_sd: 0.1}
"""


def test_criterion_12_command_determinism(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(ACC_CONFIG, encoding="utf-8")

    def full_run(out: Path) -> dict[str, bytes]:
        assert main(["simulate", "--config", str(config), "--block", "accdet",
                     "--out", str(out)]) == 0
        assert main(["report", "--config", str(config), "--records", str(out)]) == 0
        reports = out / "reports"
        return {p.name: p.read_bytes() for p in sorted(reports.iterdir())}

    first = full_run(tmp_path / "run1")
    second = full_run(tmp_path / "run2")
    identical = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first
    )
    runs_identical = (
        (tmp_path / "run1" / "accdet.runs.jsonl").read_bytes()
        == (tmp_path / "run2" / "accdet.runs.jsonl").read_bytes()
    )
    _report(identical and runs_identical,
            "criterion 12 determinism (two fresh simulate+report runs byte-identical)")
