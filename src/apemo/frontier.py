"""Robustness-gain versus cost-increase trade-off analysis.

Each block comparison becomes one point: relative quality gain (percent)
against relative realized total-cost increase (percent). The frontier
files list every point; a point is economically viable when its gain
strictly exceeds its cost increase. pareto_front picks the non-dominated
points under maximize-gain / minimize-cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .benchmark import RunRecord


@dataclass(frozen=True)
class FrontierPoint:
    """One (gain %, cost increase %) comparison with its raw means attached."""

    label: str
    gain: float
    cost_increase: float
    raw: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain) or not math.isfinite(self.cost_increase):
            raise ValueError(f"gain/cost must be finite, got {self.gain}, {self.cost_increase}")


def dominates(a: FrontierPoint, b: FrontierPoint) -> bool:
    """a dominates b iff gain_a >= gain_b and cost_a <= cost_b, one strict."""
    if a.gain < b.gain or a.cost_increase > b.cost_increase:
        return False
    return a.gain > b.gain or a.cost_increase < b.cost_increase


def pareto_front(points: Sequence[FrontierPoint]) -> list[FrontierPoint]:
    """Non-dominated subset in input order; exact ties on both axes are all retained."""
    if not points:
        raise ValueError("pareto_front needs at least one point")
    return [p for p in points if not any(dominates(q, p) for q in points if q is not p)]


@dataclass(frozen=True)
class ViabilityResult:
    viable: bool
    ratio: float  # gain / cost increase; infinite when the cost increase is zero


def viability(point: FrontierPoint) -> ViabilityResult:
    """Economically viable iff the relative gain strictly exceeds the cost increase."""
    viable = point.gain > point.cost_increase
    if point.cost_increase == 0:
        return ViabilityResult(viable=viable, ratio=math.inf)
    return ViabilityResult(viable=viable, ratio=point.gain / point.cost_increase)


def relative_gain_pct(target_mean: float, baseline_mean: float) -> float:
    """(target - baseline) / baseline, in percent."""
    if baseline_mean == 0:
        raise ValueError("baseline mean is zero; relative gain undefined")
    return (target_mean - baseline_mean) / baseline_mean * 100.0


def frontier_table(
    blocks: Mapping[str, Mapping[str, Sequence[RunRecord]]],
    target: str = "apemo",
) -> tuple[list[FrontierPoint], list[str]]:
    """One point per (block, baseline): quality gain vs realized cost increase.

    ``blocks`` maps each compared block to its runs by policy: the target's
    and each compared baseline's. Every mean covers all of a policy's runs,
    paired or not. Trap blocks use endpoint-quality gain; every other block
    uses mean-quality gain. A baseline whose mean is zero has no relative
    gain, so its point is skipped with a diagnostic instead of aborting the
    table.
    """
    points: list[FrontierPoint] = []
    skipped: list[str] = []
    for block_name in sorted(blocks):
        runs = blocks[block_name]
        metric = "endpoint_quality" if runs[target][0].trap_turn is not None else "mean_quality"
        means = {
            policy: (
                sum(getattr(r, metric) for r in rows) / len(rows),
                sum(r.total_cost for r in rows) / len(rows),
            )
            for policy, rows in runs.items()
        }
        target_q, target_c = means[target]
        for baseline in sorted(runs):
            if baseline == target:
                continue
            base_q, base_c = means[baseline]
            try:
                gain = relative_gain_pct(target_q, base_q)
                cost = relative_gain_pct(target_c, base_c)
            except ValueError as exc:
                skipped.append(f"{block_name} vs {baseline}: {exc}")
                continue
            points.append(
                FrontierPoint(
                    label=f"{block_name} (vs {baseline})",
                    gain=gain,
                    cost_increase=cost,
                    raw={
                        "metric": metric,
                        "target_mean": target_q,
                        "baseline_mean": base_q,
                        "target_cost": target_c,
                        "baseline_cost": base_c,
                    },
                )
            )
    return points, skipped


def frontier_csv(points: Sequence[FrontierPoint]) -> str:
    """CSV body with columns label, gain_pct, cost_pct, viable."""
    lines = ["label,gain_pct,cost_pct,viable"]
    for p in points:
        v = viability(p)
        lines.append(f"{p.label},{p.gain:.4f},{p.cost_increase:.4f},{str(v.viable).lower()}")
    return "\n".join(lines) + "\n"


def format_frontier_table(points: Sequence[FrontierPoint]) -> str:
    """Aligned text rendering of the frontier economics table."""
    header = f"{'setting':<44} {'quality gain':>14} {'cost increase':>14} {'viable':>8}"
    lines = [header, "-" * len(header)]
    for p in points:
        v = viability(p)
        lines.append(
            f"{p.label:<44} {p.gain:>+13.2f}% {p.cost_increase:>+13.2f}% {str(v.viable).lower():>8}"
        )
    lines.append("")
    return "\n".join(lines)
