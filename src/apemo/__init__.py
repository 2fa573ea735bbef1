"""Budget-scheduled multi-turn agent trajectories: policies, simulator,
model-server executor, benchmark blocks, statistics, and frontier analysis."""

from .abm import AbmConfig, AbmExecutor, TrapSpec, abm_step
from .benchmark import (
    BlockConfig,
    RunRecord,
    RunStore,
    RuntimeSettings,
    no_fallback_rate,
    run_block,
    trap_metrics,
)
from .executor import Executor, ExecutorError, TurnContext, TurnOutcome
from .frontier import FrontierPoint, frontier_table, pareto_front, viability
from .llm import (
    DecodingParams,
    LlmExecutor,
    ModelEndpoint,
    chat_complete,
)
from .scheduler import (
    BudgetLedger,
    POLICY_TRAITS,
    DetectionConfig,
    PolicyKind,
    PolicyTraits,
    RepairDecision,
    SchedulerConfig,
    detect_negative_peak,
    plan_turn_budget,
    request_repair,
    run_trajectory,
)
from .signals import ProxyVector, SignalConfig, TextDigest, frustration_score
from .stats import DeltaReport, block_report, bootstrap_ci, pair_runs, sign_test
from .trajectory import (
    CostBreakdown,
    ObjectiveWeights,
    ReuseParams,
    Trajectory,
    TurnRecord,
    average_frustration,
    peak_end_quality,
    reuse_per_cost,
    reuse_probability,
)

__version__ = "0.1.0"
