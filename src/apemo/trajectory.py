"""Trajectory data model and trajectory-level scoring.

A trajectory is an ordered sequence of agent turns evaluated as a whole.
Retrospective quality weighs the single best turn and the mean of the
final two turns rather than the per-turn average; frustration is carried
as a per-turn series and reported as its mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Split of the peak-end quality between the best turn and the ending mean.

    peak_weight and end_weight are non-negative and must sum to 1.
    """

    peak_weight: float = 0.5
    end_weight: float = 0.5

    def __post_init__(self) -> None:
        for name in ("peak_weight", "end_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if abs(self.peak_weight + self.end_weight - 1.0) > 1e-9:
            raise ValueError(
                f"peak_weight + end_weight must be 1, got {self.peak_weight + self.end_weight}"
            )


@dataclass(frozen=True)
class ReuseParams:
    """Coefficients of the logistic reuse-robustness map."""

    quality_gain: float = 4.0
    frustration_gain: float = 4.0
    bias: float = -2.0


@dataclass(frozen=True)
class CostBreakdown:
    """Realized coordination cost split into its three channels (token units)."""

    policy_cost: int = 0
    repair_cost: int = 0
    overhead_cost: int = 0

    def __post_init__(self) -> None:
        for name in ("policy_cost", "repair_cost", "overhead_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.policy_cost + self.repair_cost + self.overhead_cost


@dataclass(frozen=True, slots=True)
class TurnRecord:
    """One executed turn. Repair cost is attributed to the turn it repaired."""

    index: int
    quality: float
    frustration: float
    tokens_spent: int
    repaired: bool = False
    trapped: bool = False

    def __post_init__(self) -> None:
        if (
            self.index >= 1
            and 0.0 <= self.quality <= 1.0
            and 0.0 <= self.frustration <= 1.0
            and self.tokens_spent >= 0
        ):
            return
        if self.index < 1:
            raise ValueError(f"turn index must be >= 1, got {self.index}")
        _check_unit("quality", self.quality)
        _check_unit("frustration", self.frustration)
        if self.tokens_spent < 0:
            raise ValueError(f"tokens_spent must be >= 0, got {self.tokens_spent}")


@dataclass(frozen=True)
class Trajectory:
    """Ordered turn sequence, the cap it ran under, and its realized cost.

    Which policy, model and seed ran it is the caller's to keep: a block's
    run record names them.
    """

    turns: tuple[TurnRecord, ...]
    budget_cap: int
    cost: CostBreakdown = field(default_factory=CostBreakdown)
    fallback: bool = False

    def __post_init__(self) -> None:
        if len(self.turns) < 1:
            raise ValueError("trajectory must have at least one turn")
        for pos, turn in enumerate(self.turns, start=1):
            if turn.index != pos:
                raise ValueError(
                    f"turn indices must be exactly 1..T; position {pos} has index {turn.index}"
                )
        if self.budget_cap < 0:
            raise ValueError(f"budget_cap must be >= 0, got {self.budget_cap}")
        if self.cost.total > self.budget_cap:
            raise ValueError(
                f"total cost {self.cost.total} exceeds budget cap {self.budget_cap}"
            )
        spent = sum(t.tokens_spent for t in self.turns)
        if spent != self.cost.policy_cost + self.cost.repair_cost:
            raise ValueError(
                f"turn token totals ({spent}) disagree with ledger "
                f"policy+repair ({self.cost.policy_cost + self.cost.repair_cost})"
            )

    @property
    def horizon(self) -> int:
        return len(self.turns)

    def qualities(self) -> list[float]:
        return [t.quality for t in self.turns]

    def frustrations(self) -> list[float]:
        return [t.frustration for t in self.turns]


def peak_end_quality(traj: Trajectory, weights: ObjectiveWeights) -> float:
    """Peak-end weighted trajectory quality.

    peak_weight * max(q_1..q_T) + end_weight * mean(q_{T-1}, q_T). For a
    single-turn trajectory the ending mean collapses to q_1.
    """
    qualities = traj.qualities()
    peak = max(qualities)
    if len(qualities) == 1:
        ending = qualities[0]
    else:
        ending = (qualities[-2] + qualities[-1]) / 2.0
    return weights.peak_weight * peak + weights.end_weight * ending


def average_frustration(traj: Trajectory) -> float:
    """Arithmetic mean of the per-turn frustration series."""
    series = traj.frustrations()
    return sum(series) / len(series)


def reuse_probability(q_value: float, f_value: float, params: ReuseParams = ReuseParams()) -> float:
    """Logistic reuse-robustness score: rises with quality, falls with frustration."""
    _check_unit("q_value", q_value)
    _check_unit("f_value", f_value)
    z = params.quality_gain * q_value - params.frustration_gain * f_value + params.bias
    return 1.0 / (1.0 + math.exp(-z))


def reuse_per_cost(reuse: float, cost_tokens: int) -> float:
    """Reuse score per kilotoken of realized cost."""
    if cost_tokens <= 0:
        raise ValueError(f"reuse_per_cost is undefined for cost {cost_tokens}")
    return reuse / (cost_tokens / 1000.0)
