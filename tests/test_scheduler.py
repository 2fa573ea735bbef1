"""Scheduler behavior: allocation arithmetic, detection, repair, loop invariants."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from apemo import scheduler
from apemo.abm import AbmConfig, AbmExecutor, TrapSpec
from apemo.executor import ExecutorError, TurnContext, TurnOutcome, fallback_outcome
from apemo.scheduler import (
    POLICY_TRAITS,
    BudgetLedger,
    DetectionConfig,
    PolicyKind,
    PolicyTraits,
    RepairReason,
    SchedulerConfig,
    detect_negative_peak,
    plan_turn_budget,
    request_repair,
    run_trajectory,
)
from apemo.signals import SignalConfig, TextDigest, compute_proxies, frustration_score

from hostile_executors import HOSTILE_EXECUTORS, OverReportingExecutor, RetryFailingExecutor


def no_overhead_cfg(**kwargs) -> SchedulerConfig:
    kwargs.setdefault("monitor_overhead", 0)
    return SchedulerConfig(**kwargs)


# ---------------------------------------------------------------- allocation


def test_uniform_even_division():
    cfg = no_overhead_cfg()
    ledger = BudgetLedger(cap=8000)
    for t in range(1, 9):
        assert plan_turn_budget(POLICY_TRAITS[PolicyKind.UNIFORM], ledger, t, 8, cfg) == 1000
        ledger.charge_policy(1000)


def test_apemo_banks_skimmed_early_turns_in_reserve():
    cfg = no_overhead_cfg(skim_fraction=0.2)
    ledger = BudgetLedger(cap=8000)
    allocs = []
    for t in range(1, 9):
        alloc = plan_turn_budget(POLICY_TRAITS[PolicyKind.APEMO], ledger, t, 8, cfg)
        allocs.append(alloc)
        ledger.charge_policy(alloc)
    assert allocs[2] == 800  # skimmed turn: 1000 - 200
    assert allocs[:6] == [800] * 6
    assert allocs[6:] == [1000, 1000]
    assert ledger.reserve_end == 6 * 200


def test_allocation_zero_when_exhausted():
    cfg = no_overhead_cfg()
    ledger = BudgetLedger(cap=100)
    ledger.charge_policy(100)
    assert plan_turn_budget(POLICY_TRAITS[PolicyKind.UNIFORM], ledger, 1, 4, cfg) == 0


def test_monitor_overhead_prorated_out_of_base():
    cfg = SchedulerConfig(monitor_overhead=15)
    ledger = BudgetLedger(cap=8000)
    # (8000 - 120) // 8 = 985 base for monitoring policies
    assert plan_turn_budget(POLICY_TRAITS[PolicyKind.TASK_AFFECT], ledger, 7, 8, cfg) == 985


# ----------------------------------------------------------------- detection

BOTH_CLAUSES = POLICY_TRAITS[PolicyKind.APEMO]


def test_detection_stable_trajectory_none():
    cfg = DetectionConfig()
    assert detect_negative_peak(BOTH_CLAUSES, 0.8, 0.8, 0.1, cfg) is False


def test_detection_fires_on_drop_into_low_regime():
    cfg = DetectionConfig(quality_floor=0.5, drop_threshold=0.2)
    assert detect_negative_peak(BOTH_CLAUSES, 0.75, 0.35, 0.1, cfg) is True
    # the first turn has no drop
    assert detect_negative_peak(BOTH_CLAUSES, None, 0.0, 0.1, cfg) is False


def test_detection_sustained_low_is_not_a_peak():
    cfg = DetectionConfig(quality_floor=0.5, drop_threshold=0.2)
    assert detect_negative_peak(BOTH_CLAUSES, 0.45, 0.44, 0.1, cfg) is False


def test_detection_frustration_clause():
    cfg = DetectionConfig(frustration_threshold=0.7)
    assert detect_negative_peak(BOTH_CLAUSES, 0.9, 0.9, 0.75, cfg) is True
    assert detect_negative_peak(BOTH_CLAUSES, None, 0.9, 0.75, cfg) is True


def test_twin_is_the_monitoring_row_with_detection_off():
    # a detecting row resumes from its row with both detect flags off, but
    # only when that row monitors: task_affect's plain row is uniform's, whose
    # allocations differ, so keying runs by trait row never shares with uniform
    twins = {policy: traits.twin for policy, traits in POLICY_TRAITS.items()}
    assert twins[PolicyKind.APEMO] == POLICY_TRAITS[PolicyKind.TASK_PEAK_END]
    flow_twin = twins[PolicyKind.FLOW_TEMPORAL]
    assert flow_twin == PolicyTraits(topology="flow", peak_end=True)
    assert flow_twin not in POLICY_TRAITS.values()  # so flow_temporal never shares
    for policy in (PolicyKind.TASK_AFFECT, PolicyKind.UNIFORM, PolicyKind.TASK_PEAK_END,
                   PolicyKind.PLAN_EXECUTE, PolicyKind.FLOW_PLAIN):
        assert twins[policy] is None, policy
    assert len(twins) == 7


# ------------------------------------------------------------------- repairs


def test_repair_grant_within_reserve():
    ledger = BudgetLedger(cap=2000)
    ledger.charge_policy(1400)
    ledger.add_reserve(600)
    decision = request_repair(ledger, RepairReason.NEGATIVE_PEAK, 500, trigger_turn=3)
    assert decision.granted_tokens == 500
    assert ledger.repair_cost == 500
    assert ledger.reserve_end == 100


def test_repair_grant_zero_when_exhausted():
    ledger = BudgetLedger(cap=1000)
    ledger.charge_policy(1000)
    decision = request_repair(ledger, RepairReason.NEGATIVE_PEAK, 400, trigger_turn=2)
    assert decision.granted_tokens == 0


def test_repair_grant_min_rule_across_reserve_and_unreserved():
    ledger = BudgetLedger(cap=1000)
    ledger.charge_policy(600)
    ledger.add_reserve(300)  # unreserved remaining = 100
    decision = request_repair(ledger, RepairReason.ENDING_STABILIZATION, 500, trigger_turn=8)
    assert decision.granted_tokens == 400
    assert ledger.reserve_end == 0
    assert ledger.repair_cost == 400


def test_repair_rejects_nonpositive_want():
    ledger = BudgetLedger(cap=100)
    with pytest.raises(ValueError):
        request_repair(ledger, RepairReason.NEGATIVE_PEAK, 0, trigger_turn=1)


def test_ledger_never_exceeds_cap():
    ledger = BudgetLedger(cap=100)
    with pytest.raises(Exception):
        ledger.charge_policy(101)


# ------------------------------------------------------------ trajectory loop


def test_single_turn_trajectory():
    cfg = no_overhead_cfg()
    executor = AbmExecutor(AbmConfig(), seed=1)
    traj = run_trajectory(POLICY_TRAITS[PolicyKind.UNIFORM], executor, 1, 1000, 1, cfg)
    assert traj.horizon == 1
    assert traj.cost.total <= 1000
    assert not any(t.repaired for t in traj.turns)


def test_scripted_trap_repaired_and_endpoint_recovers():
    cfg = SchedulerConfig()
    trap = TrapSpec(4, 0.4)
    executor = AbmExecutor(AbmConfig(), seed=9, trap=trap)
    traj = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], executor, 8, 1600, 9, cfg)
    assert traj.turns[3].trapped
    assert traj.turns[3].repaired or traj.turns[4].repaired
    assert traj.qualities()[-1] > traj.qualities()[3] or traj.turns[3].repaired


class RecordingExecutor:
    """Passes attempts through and keeps each outcome by (turn, attempt)."""

    def __init__(self, inner):
        self.inner = inner
        self.outcomes = {}

    def execute_turn(self, ctx: TurnContext, allocated_tokens: int, seed: int) -> TurnOutcome:
        out = self.inner.execute_turn(ctx, allocated_tokens, seed)
        self.outcomes[(ctx.turn, ctx.attempt)] = out
        return out


class TextTaggingExecutor:
    """Passes attempts through, naming each output text by its turn and attempt."""

    def __init__(self, inner):
        self.inner = inner

    def execute_turn(self, ctx: TurnContext, allocated_tokens: int, seed: int) -> TurnOutcome:
        out = self.inner.execute_turn(ctx, allocated_tokens, seed)
        return replace(out, text=f"turn {ctx.turn} attempt {ctx.attempt}")


def test_turn1_digest_identical_across_policies_same_seed():
    # temporal policies must not alter the generator, only allocation
    cfg = SchedulerConfig()
    for seed in range(20):
        turn1 = []
        for policy in (PolicyKind.APEMO, PolicyKind.UNIFORM):
            executor = RecordingExecutor(AbmExecutor(AbmConfig(), seed))
            traj = run_trajectory(POLICY_TRAITS[policy], executor, 8, 1600, seed, cfg)
            turn1.append((traj.turns[0].frustration, executor.outcomes[(1, 0)].tokens))
        assert turn1[0] == turn1[1]


def test_ngram_order_changes_frustration():
    # the scheduler digests executor tokens at signal.ngram_order; the
    # executor takes no order of its own
    series = []
    for order in (1, 3):
        cfg = SchedulerConfig(signal=SignalConfig(ngram_order=order))
        executor = AbmExecutor(AbmConfig(noise_sd=0.12), 5)
        series.append(run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], executor, 8, 1600, 5, cfg).frustrations())
    assert series[0] != series[1]


def test_non_temporal_policies_never_repair():
    cfg = SchedulerConfig()
    trap = TrapSpec(3, 0.5)
    for policy in (PolicyKind.UNIFORM, PolicyKind.FLOW_PLAIN, PolicyKind.PLAN_EXECUTE):
        for seed in range(10):
            executor = AbmExecutor(AbmConfig(), seed, trap=trap)
            traj = run_trajectory(POLICY_TRAITS[policy], executor, 6, 1200, seed, cfg)
            assert not any(t.repaired for t in traj.turns)
            assert traj.cost.repair_cost == 0


def test_repair_count_bounded():
    cfg = SchedulerConfig(max_repairs=2)
    trap = TrapSpec(3, 0.6)
    for seed in range(30):
        executor = AbmExecutor(AbmConfig(noise_sd=0.15), seed, trap=trap)
        traj = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], executor, 8, 1600, seed, cfg)
        assert sum(1 for t in traj.turns if t.repaired) <= 2 + 2


def test_reduction_to_uniform_bit_identical():
    cfg = SchedulerConfig(
        detection=DetectionConfig(quality_floor=0.0, drop_threshold=0.2,
                                  frustration_threshold=1.5),
        skim_fraction=0.0,
        monitor_overhead=0,
    )
    for seed in range(25):
        a = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], AbmExecutor(AbmConfig(), seed), 8, 1600, seed, cfg)
        u = run_trajectory(POLICY_TRAITS[PolicyKind.UNIFORM], AbmExecutor(AbmConfig(), seed), 8, 1600, seed, cfg)
        assert a == u


ABM_ALIASES = {
    PolicyKind.FLOW_PLAIN: PolicyKind.UNIFORM,
    PolicyKind.PLAN_EXECUTE: PolicyKind.UNIFORM,
    PolicyKind.FLOW_TEMPORAL: PolicyKind.APEMO,
}


@pytest.mark.parametrize("trap", [None, TrapSpec(4, 0.4, 0.3)])
def test_simulator_runs_topology_policies_as_their_single_aliases(trap):
    # the simulator has no roles, so these policies reproduce a single-topology
    # policy exactly; this is why BlockConfig rejects them on abm blocks, and a
    # simulator that gains a topology fails here first
    cfg = SchedulerConfig()
    abm = AbmConfig(noise_sd=0.12)
    for policy, alias in ABM_ALIASES.items():
        for seed in range(1, 9):
            ran = run_trajectory(POLICY_TRAITS[policy], AbmExecutor(abm, seed, trap=trap), 8, 680, seed, cfg)
            ref = run_trajectory(POLICY_TRAITS[alias], AbmExecutor(abm, seed, trap=trap), 8, 680, seed, cfg)
            assert ran == ref


def test_thresholds_unreachable_gives_uniform_plus_reserve():
    cfg = SchedulerConfig(
        detection=DetectionConfig(quality_floor=0.0, frustration_threshold=1.5),
        monitor_overhead=0,
        ending_threshold=0.0,  # endings never re-executed either
    )
    seed = 3
    traj = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], AbmExecutor(AbmConfig(), seed), 8, 8000, seed, cfg)
    assert [t.tokens_spent for t in traj.turns] == [800] * 6 + [1000, 1000]
    assert traj.cost.repair_cost == 0


def test_determinism_same_inputs_same_serialization():
    cfg = SchedulerConfig()
    trap = TrapSpec(4, 0.4)
    runs = []
    for _ in range(2):
        executor = AbmExecutor(AbmConfig(), 17, trap=trap)
        runs.append(run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], executor, 8, 1600, 17, cfg))
    assert runs[0] == runs[1]


def test_budget_cap_precondition():
    cfg = SchedulerConfig()
    with pytest.raises(ValueError):
        run_trajectory(POLICY_TRAITS[PolicyKind.UNIFORM], AbmExecutor(AbmConfig(), 1), 8, 7, 1, cfg)


def test_policy_serialized_names_exact():
    assert {p.value for p in PolicyKind} == {
        "uniform", "task_affect", "task_peak_end", "apemo",
        "plan_execute", "flow_plain", "flow_temporal",
    }
    assert str(PolicyKind.APEMO) == "apemo"


def test_retry_frustration_scores_the_kept_output():
    # each turn's frustration is read from the output the turn keeps, whether
    # that is the first pass or a strictly better repair or ending retry
    cfg = SchedulerConfig()
    order = cfg.signal.ngram_order
    task = TextDigest.from_text(cfg.task, order)
    retried = kept_retries = 0
    for seed in range(20):
        executor = RecordingExecutor(
            AbmExecutor(AbmConfig(noise_sd=0.12), seed, trap=TrapSpec(4, 0.4, 0.3))
        )
        traj = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], executor, 8, 1600, seed, cfg)
        history: list[TextDigest] = []
        prev = None
        for record in traj.turns:
            first, *retries = [out for (turn, _), out in sorted(executor.outcomes.items())
                               if turn == record.index]
            kept = first
            for retry in retries:
                kept = retry if retry.quality > kept.quality else kept
            retried += bool(retries)
            kept_retries += kept is not first
            digest = TextDigest.from_tokens(kept.tokens, order)
            proxies = compute_proxies(digest, history, task)
            assert record.quality == kept.quality
            assert record.frustration == frustration_score(proxies, cfg.signal, prev)
            history.append(digest)
            prev = record.frustration
    assert 0 < kept_retries < retried


@pytest.mark.parametrize("hostile", (None, *HOSTILE_EXECUTORS),
                         ids=lambda h: h.__name__ if h else "simulator")
def test_the_log_is_the_run_history_and_its_end_state(hostile):
    # the log's records are the trajectory's turns, its last entry holds the
    # ledger and fallback the trajectory ends with, and entry i holds the kept
    # outputs of turns 1..i, each the first attempt or a strictly better retry
    cfg = SchedulerConfig()
    order = cfg.signal.ngram_order
    for policy in (PolicyKind.UNIFORM, PolicyKind.TASK_AFFECT, PolicyKind.TASK_PEAK_END,
                   PolicyKind.APEMO):
        for seed in range(1, 6):
            inner = AbmExecutor(AbmConfig(noise_sd=0.12), seed, trap=TrapSpec(4, 0.4, 0.3))
            executor = hostile(inner) if hostile is not None else inner
            recording = RecordingExecutor(TextTaggingExecutor(executor))
            log: list = []
            traj = run_trajectory(POLICY_TRAITS[policy], recording, 8, 680, seed, cfg, log=log)
            assert tuple(entry.record for entry in log) == traj.turns
            cost = traj.cost
            assert log[-1].ledger[:3] == (cost.policy_cost, cost.repair_cost, cost.overhead_cost)
            assert log[-1].fallback == traj.fallback
            kept_outputs = []
            for turn in range(1, 9):
                attempts = sorted((attempt, out) for (t, attempt), out
                                  in recording.outcomes.items() if t == turn)
                kept = (attempts[0][1] if attempts and attempts[0][0] == 0
                        else fallback_outcome())
                for _, retry in attempts[1:]:
                    kept = retry if retry.quality > kept.quality else kept
                kept_outputs.append(kept)
                entry = log[turn - 1]
                assert entry.record.quality == kept.quality
                assert entry.texts == tuple(out.text for out in kept_outputs)
                assert entry.digests == tuple(TextDigest.from_tokens(out.tokens, order)
                                              for out in kept_outputs)


class FailingExecutor:
    """Fails a chosen turn; otherwise constant mid quality."""

    def __init__(self, fail_turn):
        self.fail_turn = fail_turn

    def execute_turn(self, ctx: TurnContext, allocated_tokens: int, seed: int) -> TurnOutcome:
        if ctx.turn == self.fail_turn and ctx.attempt == 0:
            raise ExecutorError("injected failure")
        return TurnOutcome(
            tokens=("answer", str(ctx.turn), "attempt", str(ctx.attempt)),
            tokens_used=allocated_tokens,
            quality=0.6,
            text=f"answer {ctx.turn}",
        )


def test_executor_failure_marks_fallback_with_zero_quality_turn():
    cfg = no_overhead_cfg()
    traj = run_trajectory(POLICY_TRAITS[PolicyKind.UNIFORM], FailingExecutor(3), 4, 800, 1, cfg)
    assert traj.fallback
    assert traj.turns[2].quality == 0.0
    assert traj.turns[2].tokens_spent == 0
    assert traj.cost.total <= 800


def test_budget_safety_fuzz():
    # randomized policies, horizons, caps, thresholds: the cap always holds
    rng = random.Random(20240809)
    policies = list(PolicyKind)
    for trial in range(400):
        policy = policies[rng.randrange(len(policies))]
        horizon = rng.randint(1, 10)
        cap = rng.randint(horizon, 5000)
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
        if horizon >= 2 and rng.random() < 0.5:
            trap = TrapSpec(rng.randint(1, horizon), rng.uniform(0.1, 1.0),
                            rng.uniform(0.0, 1.0))
        abm = AbmConfig(
            initial_quality=rng.uniform(0.1, 0.9),
            drift_rate=rng.uniform(-0.08, 0.04),
            noise_sd=rng.uniform(0.0, 0.25),
        )
        executor = AbmExecutor(abm, trial, trap=trap)
        traj = run_trajectory(POLICY_TRAITS[policy], executor, horizon, cap, trial, cfg)
        assert traj.cost.total <= cap
        spent = sum(t.tokens_spent for t in traj.turns)
        assert spent == traj.cost.policy_cost + traj.cost.repair_cost


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_over_reported_tokens_never_overdraw(policy):
    # every hostile executor against every policy: the cap holds, the turns
    # account for every charged token, and fallback marks exactly the
    # trajectories where an attempt failed
    cfg = SchedulerConfig()
    cap = 680
    traits = POLICY_TRAITS[policy]
    for hostile in HOSTILE_EXECUTORS:
        repaired = failed = 0
        for seed in range(1, 6):
            inner = AbmExecutor(AbmConfig(noise_sd=0.12), seed, trap=TrapSpec(4, 0.4, 0.3))
            executor = hostile(inner)
            traj = run_trajectory(traits, executor, 8, cap, seed, cfg)
            assert traj.cost.total <= cap
            assert sum(t.tokens_spent for t in traj.turns) == (
                traj.cost.policy_cost + traj.cost.repair_cost
            )
            assert traj.fallback == executor.failed
            repaired += sum(t.repaired for t in traj.turns)
            failed += executor.failed
        if hostile is OverReportingExecutor and traits.peak_end:
            # the clamp on repair and ending retries was exercised, not just the first attempt
            assert repaired > 0
        if hostile is RetryFailingExecutor:
            assert repaired == 0
            if traits.peak_end:
                assert failed > 0  # repair or ending attempts were made


def test_detection_score_reused_when_no_repair(monkeypatch):
    # one proxy evaluation per monitored turn unless a repair replaces the outcome
    calls = []
    real = scheduler.compute_proxies

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(scheduler, "compute_proxies", counting)
    cfg = no_overhead_cfg(max_repairs=0, ending_threshold=0.0)
    traj = run_trajectory(POLICY_TRAITS[PolicyKind.APEMO], AbmExecutor(AbmConfig(), 3), 8, 4000, 3, cfg)
    assert not any(t.repaired for t in traj.turns)
    assert len(calls) == 8
