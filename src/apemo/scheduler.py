"""Runtime budget scheduling: policies, ledger, peak detection, repair.

Policies share one trajectory loop and differ only in allocation shape and
repair behavior. Temporal policies skim a fraction of early-turn budget
into an ending reserve, watch the quality/frustration series for negative
peaks, re-execute flagged turns once with banked tokens (keeping the
better result), and stabilize the final two turns. The ledger enforces the
hard budget cap at every mutation; a trajectory can be starved but never
overdrawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .executor import Executor, ExecutorError, TurnContext, TurnOutcome, fallback_outcome
from .signals import SignalConfig, TextDigest, compute_proxies, frustration_score
from .trajectory import CostBreakdown, Trajectory, TurnRecord


class BudgetError(RuntimeError):
    """Internal guard: a ledger mutation would have exceeded the cap."""


class PolicyKind(str, Enum):
    UNIFORM = "uniform"
    TASK_AFFECT = "task_affect"
    TASK_PEAK_END = "task_peak_end"
    APEMO = "apemo"
    PLAN_EXECUTE = "plan_execute"
    FLOW_PLAIN = "flow_plain"
    FLOW_TEMPORAL = "flow_temporal"

    def __str__(self) -> str:  # serialized name, not the enum repr
        return self.value


@dataclass(frozen=True)
class PolicyTraits:
    """What a policy does at runtime, beyond plain per-turn execution.

    peak_end banks a skim of each early turn as an ending reserve and spends
    it on the final two turns; a policy monitors when it detects or does
    that. A topology other than single needs a model server: the simulator
    has no roles, so a block runs those policies on the llm executor only.
    """

    topology: str = "single"  # single | plan_execute | flow
    peak_end: bool = False
    detect_quality: bool = False
    detect_frustration: bool = False

    @property
    def monitors(self) -> bool:
        return self.detect_quality or self.detect_frustration or self.peak_end

    @property
    def twin(self) -> Optional[PolicyTraits]:
        """The row whose logged run this row's run resumes from, or None.

        The twin has this row's traits with both detect flags off, and it
        monitors, so both pay the same overhead and get the same allocations.
        Their runs on one executor and seed are then the same, turn for turn,
        until this row is first granted a negative-peak repair (see
        first_repair).
        """
        if not (self.detect_quality or self.detect_frustration):
            return None
        plain = replace(self, detect_quality=False, detect_frustration=False)
        return plain if plain.monitors else None


POLICY_TRAITS: dict[PolicyKind, PolicyTraits] = {
    PolicyKind.UNIFORM: PolicyTraits(),
    PolicyKind.TASK_AFFECT: PolicyTraits(detect_frustration=True),
    PolicyKind.TASK_PEAK_END: PolicyTraits(peak_end=True),
    PolicyKind.APEMO: PolicyTraits(peak_end=True, detect_quality=True, detect_frustration=True),
    PolicyKind.PLAN_EXECUTE: PolicyTraits(topology="plan_execute"),
    PolicyKind.FLOW_PLAIN: PolicyTraits(topology="flow"),
    PolicyKind.FLOW_TEMPORAL: PolicyTraits(
        topology="flow", peak_end=True, detect_quality=True, detect_frustration=True
    ),
}


class RepairReason(str, Enum):
    NEGATIVE_PEAK = "negative_peak"
    ENDING_STABILIZATION = "ending_stabilization"


@dataclass(frozen=True)
class RepairDecision:
    trigger_turn: int
    reason: RepairReason
    granted_tokens: int


@dataclass(frozen=True)
class DetectionConfig:
    """Thresholds for the negative-peak trigger.

    The quality clause fires when the current quality is below quality_floor
    AND the one-turn drop is at least drop_threshold; the frustration clause
    fires when the score reaches frustration_threshold. Either clause that a
    policy's traits switch on triggers. Setting quality_floor to 0 or
    frustration_threshold above 1 makes the respective clause unreachable.
    """

    quality_floor: float = 0.5
    drop_threshold: float = 0.2
    frustration_threshold: float = 0.7


@dataclass(frozen=True)
class SchedulerConfig:
    """All knobs of the trajectory loop, shared across policies."""

    task: str = "plan the route and estimate total cost and risks"
    signal: SignalConfig = field(default_factory=SignalConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    skim_fraction: float = 0.2
    monitor_overhead: int = 15
    max_repairs: int = 2
    repair_factor: float = 1.5
    ending_threshold: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 <= self.skim_fraction < 1.0:
            raise ValueError(f"skim_fraction must be in [0, 1), got {self.skim_fraction}")
        if self.monitor_overhead < 0:
            raise ValueError(f"monitor_overhead must be >= 0, got {self.monitor_overhead}")
        if self.max_repairs < 0:
            raise ValueError(f"max_repairs must be >= 0, got {self.max_repairs}")
        if self.repair_factor <= 0:
            raise ValueError(f"repair_factor must be > 0, got {self.repair_factor}")


@dataclass(slots=True)
class BudgetLedger:
    """Running coordination-cost decomposition against a hard cap.

    Total spent never exceeds the cap at any observable point; every
    mutation revalidates the invariant.
    """

    cap: int
    policy_cost: int = 0
    repair_cost: int = 0
    overhead_cost: int = 0
    reserve_end: int = 0

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise ValueError(f"cap must be >= 0, got {self.cap}")

    @property
    def total_spent(self) -> int:
        return self.policy_cost + self.repair_cost + self.overhead_cost

    def unreserved_remaining(self) -> int:
        return self.cap - self.total_spent - self.reserve_end

    def _check(self) -> None:
        spent = self.total_spent
        # a reserve in [0, cap - spent] also bounds spent by the cap
        if 0 <= self.reserve_end <= self.cap - spent:
            return
        if spent > self.cap:
            raise BudgetError(f"spent {spent} exceeds cap {self.cap}")
        raise BudgetError(
            f"reserve {self.reserve_end} invalid against cap {self.cap}, spent {spent}"
        )

    def charge_policy(self, tokens: int) -> None:
        if tokens < 0:
            raise ValueError("cannot charge negative tokens")
        self.policy_cost += tokens
        self._check()

    def charge_overhead(self, tokens: int) -> None:
        if tokens < 0:
            raise ValueError("cannot charge negative tokens")
        self.overhead_cost += tokens
        self._check()

    def add_reserve(self, tokens: int) -> None:
        if tokens < 0:
            raise ValueError("cannot reserve negative tokens")
        self.reserve_end += tokens
        self._check()

    def grant_repair(self, want_tokens: int) -> int:
        """Grant min(want, reserve + unreserved remaining), drawing reserve first."""
        if want_tokens <= 0:
            raise ValueError(f"want_tokens must be > 0, got {want_tokens}")
        available = self.reserve_end + self.unreserved_remaining()
        granted = min(want_tokens, available)
        if granted <= 0:
            return 0
        from_reserve = min(granted, self.reserve_end)
        self.reserve_end -= from_reserve
        self.repair_cost += granted
        self._check()
        return granted

    def refund_repair(self, tokens: int) -> None:
        """Return the unused part of a repair grant."""
        if tokens < 0 or tokens > self.repair_cost:
            raise ValueError(f"invalid repair refund {tokens}")
        self.repair_cost -= tokens
        self._check()

    def breakdown(self) -> CostBreakdown:
        return CostBreakdown(
            policy_cost=self.policy_cost,
            repair_cost=self.repair_cost,
            overhead_cost=self.overhead_cost,
        )


def turn_base_budget(traits: PolicyTraits, cap: int, horizon: int, cfg: SchedulerConfig) -> int:
    """Even per-turn base after setting aside monitoring overhead."""
    overhead_total = cfg.monitor_overhead * horizon if traits.monitors else 0
    return max((cap - overhead_total) // horizon, 0)


def plan_turn_budget(
    traits: PolicyTraits,
    ledger: BudgetLedger,
    turn: int,
    horizon: int,
    cfg: SchedulerConfig,
) -> int:
    """Token allocation for one turn; skimming policies bank the skimmed part.

    Never exceeds the unreserved remaining budget; an exhausted ledger gets 0
    and the turn runs at minimum precision.
    """
    if not 1 <= turn <= horizon:
        raise ValueError(f"turn {turn} outside horizon 1..{horizon}")
    base = turn_base_budget(traits, ledger.cap, horizon, cfg)
    alloc = base
    skim_amount = 0
    if traits.peak_end and horizon >= 3 and turn <= horizon - 2:
        skim_amount = int(base * cfg.skim_fraction)
        alloc = base - skim_amount
    remaining = ledger.unreserved_remaining()
    alloc = max(min(alloc, remaining), 0)
    if skim_amount > 0:
        bankable = min(skim_amount, remaining - alloc)
        if bankable > 0:
            ledger.add_reserve(bankable)
    return alloc


def detect_negative_peak(
    traits: PolicyTraits,
    prior_quality: Optional[float],
    quality: float,
    score: float,
    cfg: DetectionConfig,
) -> bool:
    """Whether the current turn is a negative peak for a policy of these traits.

    Quality clause, when traits.detect_quality: quality below the floor AND
    a drop of at least drop_threshold from the prior turn's (so never on the
    first turn). Frustration clause, when traits.detect_frustration: the
    score at or above the threshold. Sustained-low quality without a drop is
    not a peak.
    """
    if (
        traits.detect_quality
        and prior_quality is not None
        and quality < cfg.quality_floor
        and prior_quality - quality >= cfg.drop_threshold
    ):
        return True
    return traits.detect_frustration and score >= cfg.frustration_threshold


def peak_repair_granted(
    traits: PolicyTraits,
    ok: bool,
    prior_quality: Optional[float],
    quality: float,
    score: float,
    detection: DetectionConfig,
    repairs_used: int,
    max_repairs: int,
    headroom: int,
) -> bool:
    """Whether a turn's first attempt is granted a negative-peak repair.

    It is when the attempt succeeded, traits' detection fires on it, a
    repair is left, and the cap leaves headroom (cap minus spent): the ledger
    grants min(want, headroom) and want is at least one token. run_trajectory
    and first_repair both decide by this test.
    """
    return (
        ok
        and detect_negative_peak(traits, prior_quality, quality, score, detection)
        and repairs_used < max_repairs
        and headroom > 0
    )


def request_repair(
    ledger: BudgetLedger, reason: RepairReason, want_tokens: int, trigger_turn: int
) -> RepairDecision:
    """Ask the ledger to fund a repair of want_tokens, or of what it has left."""
    if want_tokens <= 0:
        raise ValueError(f"want_tokens must be > 0, got {want_tokens}")
    granted = ledger.grant_repair(want_tokens)
    return RepairDecision(trigger_turn=trigger_turn, reason=reason, granted_tokens=granted)


def _critique_note(reason: RepairReason, quality: float) -> str:
    if reason is RepairReason.NEGATIVE_PEAK:
        return (
            f"The previous attempt scored {quality:.2f} and drifted off course. "
            "Re-answer the task directly, avoid repeating yourself, and finish cleanly."
        )
    return (
        f"The closing answer scored {quality:.2f}. Produce a stronger final answer: "
        "complete, on-task, and clearly concluded."
    )


@lru_cache(maxsize=64)
def _task_digest(task: str, order: int) -> TextDigest:
    """Digest of the task wording, built once per (task, order); digests are immutable."""
    return TextDigest.from_text(task, order)


class TurnLog(NamedTuple):
    """One turn of a run, and the run's state at the turn's end.

    ok and first are the first attempt's success and outcome; score is its
    digest's frustration score, also when a retry replaced it; spent is the
    ledger's total after it. record is what the turn kept. ledger (policy,
    repair and overhead cost, then the ending reserve) and fallback are the
    loop state at the end of the turn, and texts and digests hold the kept
    outputs of every turn so far, so a run resumed after this turn starts
    from this entry alone.
    """

    ok: bool
    first: TurnOutcome
    score: float
    spent: int
    record: TurnRecord
    ledger: tuple[int, int, int, int]
    fallback: bool
    texts: tuple[str, ...]
    digests: tuple[TextDigest, ...]


def first_repair(
    traits: PolicyTraits, log: Sequence[TurnLog], budget_cap: int, cfg: SchedulerConfig
) -> Optional[int]:
    """The index in `log` of the first turn at which a policy of `traits`
    would be granted a negative-peak repair, or None when there is no such turn.

    The log must come from a run of traits.twin with the same executor,
    horizon, cap, seed and cfg. Up to that turn, the policy makes the same
    attempts and ledger moves as the twin, so its run resumed there equals
    its full run; with no such turn, its run is the twin's.
    """
    prior_quality: Optional[float] = None
    for turn, entry in enumerate(log):
        if peak_repair_granted(traits, entry.ok, prior_quality, entry.first.quality, entry.score,
                               cfg.detection, 0, cfg.max_repairs, budget_cap - entry.spent):
            return turn
        prior_quality = entry.record.quality
    return None


def run_trajectory(
    traits: PolicyTraits,
    executor: Executor,
    horizon: int,
    budget_cap: int,
    seed: int,
    cfg: SchedulerConfig,
    log: Optional[list[TurnLog]] = None,
    twin: Optional[Sequence[TurnLog]] = None,
) -> Trajectory:
    """Execute one full trajectory of a policy's traits, returning the sealed record.

    Per turn: allocate, execute, score affect signals, optionally detect a
    negative peak and re-execute once with banked tokens, and on the final
    two turns spend any remaining reserve on ending re-executions. Every
    attempt takes one path: it is charged at most its allocation, whatever
    the executor reports, so a misreporting executor cannot overdraw the
    cap, and a retry is kept only if strictly better.
    An ExecutorError records a zero-quality attempt, charged the tokens the
    error reports, and marks the trajectory as fallback; any other exception
    propagates. Signals are read from digests built here from an attempt's
    tokens at cfg.signal.ngram_order: every first attempt is digested and
    scored once, and a retry only when it is kept.

    The run's only history is its log, one TurnLog per turn: the caller's
    list (empty) when given, else its own. twin is the log of a run of
    traits.twin on the same executor and seed. The run takes the twin's
    turns before the first one that first_repair finds (every turn when
    there is none), then executes the rest from the last taken entry's
    state; so its log is the twin's prefix plus its own turns, and can
    itself be resumed. The result equals the full run only if the executor
    is a pure function of (context, allocation, seed), as executor.py states.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if budget_cap < horizon:
        raise ValueError(f"budget cap {budget_cap} below one token per turn for T={horizon}")

    overhead = cfg.monitor_overhead if traits.monitors else 0
    # the first turn that gets ending re-executions; past the horizon when none does
    ending_from = horizon - 1 if traits.peak_end and horizon >= 2 else horizon + 1
    base = turn_base_budget(traits, budget_cap, horizon, cfg)
    signal = cfg.signal
    order = signal.ngram_order
    task_digest = _task_digest(cfg.task, order)

    if log is None:
        log = []
    if twin is not None:
        log.extend(twin[:first_repair(traits, twin, budget_cap, cfg)])
    if log:
        ledger, fallback = BudgetLedger(budget_cap, *log[-1].ledger), log[-1].fallback
    else:
        ledger, fallback = BudgetLedger(budget_cap), False
    repairs_used = 0
    # the current turn: its kept outcome, tokens spent, attempts made, and
    # whether a repair attempt succeeded
    kept: TurnOutcome
    spent = tries = 0
    repaired = False

    def attempt(ctx: TurnContext, alloc: int, reason: Optional[RepairReason] = None) -> bool:
        """Run one execution attempt of the current turn; return whether it succeeded.

        The first pass (no reason) is charged to policy cost. A retry asks
        the ledger to fund alloc tokens, which a caller asks only when the
        ledger can grant some, re-executes with a critique of the kept output
        for its reason, and refunds the unused part of the grant.
        """
        nonlocal kept, spent, tries, repaired, fallback
        if reason is not None:
            alloc = request_repair(ledger, reason, alloc, ctx.turn).granted_tokens
            ctx = TurnContext(
                task=ctx.task,
                turn=ctx.turn,
                horizon=ctx.horizon,
                attempt=tries,
                prior_quality=ctx.prior_quality,
                critique=_critique_note(reason, kept.quality),
                history=ctx.history,
            )
        tries += 1
        ok = True
        try:
            outcome = executor.execute_turn(ctx, alloc, seed)
        except ExecutorError as exc:
            fallback = True
            ok = False
            outcome = fallback_outcome(exc.tokens_used)
        used = min(outcome.tokens_used, alloc)
        if reason is None:
            ledger.charge_policy(used)
        else:
            ledger.refund_repair(alloc - used)
            repaired = repaired or ok
        spent += used
        if reason is None or outcome.quality > kept.quality:
            kept = outcome
        return ok

    def score_signal(digest: TextDigest) -> float:
        return frustration_score(compute_proxies(digest, digests, task_digest), signal,
                                 prev_score)

    for turn in range(len(log) + 1, horizon + 1):
        if log:
            last = log[-1]
            prior_quality, prev_score = last.record.quality, last.record.frustration
            texts, digests = last.texts, last.digests
        else:
            prior_quality = prev_score = None
            texts = digests = ()
        if overhead:
            ledger.charge_overhead(min(overhead, ledger.unreserved_remaining()))
        alloc = plan_turn_budget(traits, ledger, turn, horizon, cfg)
        ctx = TurnContext(
            task=cfg.task,
            turn=turn,
            horizon=horizon,
            attempt=0,
            prior_quality=prior_quality,
            history=texts,
        )
        spent = tries = 0
        repaired = False
        ok = attempt(ctx, alloc)
        first = kept
        spent_first = ledger.total_spent
        digest = TextDigest.from_tokens(first.tokens, order)
        first_score = score = score_signal(digest)

        if peak_repair_granted(traits, ok, prior_quality, first.quality, score, cfg.detection,
                               repairs_used, cfg.max_repairs, budget_cap - spent_first):
            attempt(ctx, max(1, math.ceil(cfg.repair_factor * max(alloc, base))),
                    RepairReason.NEGATIVE_PEAK)
            repairs_used += 1

        if ok and turn >= ending_from and kept.quality < cfg.ending_threshold:
            want = ledger.reserve_end // (horizon - turn + 1)
            if want > 0:
                attempt(ctx, want, RepairReason.ENDING_STABILIZATION)

        # the score depends only on the kept output and the prior turns, so the
        # first attempt's stands unless a retry replaced it
        if kept is not first:
            digest = TextDigest.from_tokens(kept.tokens, order)
            score = score_signal(digest)
        record = TurnRecord(
            index=turn,
            quality=kept.quality,
            frustration=score,
            tokens_spent=spent,
            repaired=repaired,
            trapped=first.trapped,
        )
        log.append(TurnLog(
            ok, first, first_score, spent_first, record,
            (ledger.policy_cost, ledger.repair_cost, ledger.overhead_cost, ledger.reserve_end),
            fallback, texts + (kept.text,), digests + (digest,),
        ))

    return Trajectory(
        turns=tuple(entry.record for entry in log),
        budget_cap=budget_cap,
        cost=ledger.breakdown(),
        fallback=fallback,
    )
