"""Dominance filtering, viability, and table arithmetic against oracles."""

from __future__ import annotations

import math
import random

import pytest

from apemo.benchmark import RunRecord, SCHEMA_VERSION
from apemo.frontier import (
    FrontierPoint,
    dominates,
    format_frontier_table,
    frontier_csv,
    frontier_table,
    pareto_front,
    relative_gain_pct,
    viability,
)


def pt(gain, cost, label="p"):
    return FrontierPoint(label=label, gain=gain, cost_increase=cost)


def brute_force_front(points):
    """O(n^2) dominance filter used as the oracle."""
    return [
        p for p in points
        if not any(dominates(q, p) for q in points if q is not p)
    ]


def test_singleton_front():
    p = pt(5, 2)
    assert pareto_front([p]) == [p]


def test_dominating_point_filters_others():
    points = [pt(10, 5, "a"), pt(8, 6, "b"), pt(12, 4, "c")]
    front = pareto_front(points)
    assert [p.label for p in front] == ["c"]


def test_incomparable_pair_both_kept():
    points = [pt(10, 5, "a"), pt(12, 8, "b")]
    assert set(p.label for p in pareto_front(points)) == {"a", "b"}


def test_exact_ties_both_retained():
    points = [pt(10, 5, "a"), pt(10, 5, "b")]
    assert len(pareto_front(points)) == 2


def test_front_matches_brute_force_on_random_sets():
    rng = random.Random(2024)
    for trial in range(100):
        n = rng.randint(1, 200)
        points = [
            pt(rng.choice([rng.uniform(-20, 60), rng.randint(-5, 10)]),
               rng.choice([rng.uniform(0, 30), rng.randint(0, 6)]),
               label=f"p{i}")
            for i, n_ in ((i, None) for i in range(n))
        ]
        expected = {p.label for p in brute_force_front(points)}
        got = {p.label for p in pareto_front(points)}
        assert got == expected, f"trial {trial}"


def test_front_idempotent():
    rng = random.Random(7)
    points = [pt(rng.uniform(0, 50), rng.uniform(0, 20), f"p{i}") for i in range(80)]
    once = pareto_front(points)
    twice = pareto_front(once)
    assert {p.label for p in once} == {p.label for p in twice}


def test_every_point_in_front_or_dominated():
    rng = random.Random(3)
    points = [pt(rng.randint(0, 8), rng.randint(0, 8), f"p{i}") for i in range(60)]
    front = pareto_front(points)
    front_ids = {id(p) for p in front}
    for p in points:
        if id(p) not in front_ids:
            assert any(dominates(q, p) for q in front)


def test_front_rejects_empty():
    with pytest.raises(ValueError):
        pareto_front([])


def test_viability_reference_rows():
    assert viability(pt(14.49, 6.28)).viable  # long-horizon vs peak-end
    assert viability(pt(8.48, 3.39)).viable  # short-horizon row
    assert viability(pt(29.90, 5.33)).viable  # trap endpoint row
    assert viability(pt(41.25, 7.14)).viable  # multi-agent plain row


def test_viability_boundary_is_strict():
    assert not viability(pt(3.0, 3.0)).viable


def test_viability_zero_cost_flagged_infinite():
    result = viability(pt(5.0, 0.0))
    assert result.viable
    assert math.isinf(result.ratio)


def test_relative_gain_formula():
    assert relative_gain_pct(0.625, 0.5459) == pytest.approx(14.49, abs=0.01)
    with pytest.raises(ValueError):
        relative_gain_pct(0.5, 0.0)


def _record(block, policy, seed, mean_quality, endpoint_quality, total_cost, trap=None):
    return RunRecord(
        schema_version=SCHEMA_VERSION, block=block, model_id="m", seed=seed,
        policy=policy, horizon=8, episodes=1, mean_quality=mean_quality,
        peak_end_quality=mean_quality, endpoint_quality=endpoint_quality,
        reuse_probability=0.5, reuse_per_cost=0.5, avg_frustration=0.2,
        total_cost=total_cost, policy_cost=total_cost, repair_cost=0.0,
        overhead_cost=0.0, repair_count=0.0, fallback=False,
        quality_by_turn=tuple([mean_quality] * 8),
        frustration_by_turn=tuple([0.2] * 8),
        trap_turn=trap,
        trap_quality_drop=0.0 if trap else None,
        trap_quality_rebound2=0.0 if trap else None,
        trap_frustration_drop2=0.0 if trap else None,
    )


def test_frontier_table_uses_mean_quality_and_cost_means():
    blocks = {
        "long": {
            "apemo": [_record("long", "apemo", s, 0.6250, 0.7, 5314.0) for s in range(5)],
            "task_peak_end": [
                _record("long", "task_peak_end", s, 0.5459, 0.6, 5000.0) for s in range(5)
            ],
        }
    }
    points, skipped = frontier_table(blocks)
    assert not skipped
    (point,) = points
    assert point.gain == pytest.approx(14.49, abs=0.01)
    assert point.cost_increase == pytest.approx(6.28, abs=0.01)
    assert viability(point).viable


def test_frontier_table_trap_block_uses_endpoint_quality():
    blocks = {
        "trap": {
            "apemo": [_record("trap", "apemo", s, 0.5, 0.6497, 5266.5, trap=4) for s in range(5)],
            "task_peak_end": [
                _record("trap", "task_peak_end", s, 0.5, 0.5002, 5000.0, trap=4) for s in range(5)
            ],
        }
    }
    points, skipped = frontier_table(blocks)
    (point,) = points
    assert point.raw["metric"] == "endpoint_quality"
    assert point.gain == pytest.approx(29.88, abs=0.05)
    assert point.cost_increase == pytest.approx(5.33, abs=0.01)


def test_frontier_table_identical_policies_zero_row():
    runs = {policy: [_record("b", policy, s, 0.5, 0.5, 1000.0) for s in range(3)]
            for policy in ("apemo", "uniform")}
    points, _ = frontier_table({"b": runs})
    (point,) = points
    assert point.gain == pytest.approx(0.0)
    assert point.cost_increase == pytest.approx(0.0)
    assert not viability(point).viable


def test_frontier_csv_schema():
    points = [pt(14.49, 6.28, "long (vs task_peak_end)")]
    csv = frontier_csv(points)
    lines = csv.strip().splitlines()
    assert lines[0] == "label,gain_pct,cost_pct,viable"
    assert lines[1].startswith("long (vs task_peak_end),14.49")
    assert lines[1].endswith("true")
    assert "viable" in format_frontier_table(points)
