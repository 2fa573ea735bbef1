"""Scoring math on trajectories: peak-end, frustration, cost, reuse."""

from __future__ import annotations

import random

import pytest

from apemo.trajectory import (
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


def make_traj(qualities, frustrations=None, tokens=100) -> Trajectory:
    frustrations = frustrations or [0.0] * len(qualities)
    turns = tuple(
        TurnRecord(index=i + 1, quality=q, frustration=f, tokens_spent=tokens)
        for i, (q, f) in enumerate(zip(qualities, frustrations))
    )
    total = tokens * len(qualities)
    return Trajectory(
        turns=turns,
        budget_cap=total,
        cost=CostBreakdown(policy_cost=total),
    )


def brute_force_peak_end(qualities, peak_w, end_w):
    """Independent oracle: explicit max scan plus ending mean."""
    peak = qualities[0]
    for q in qualities[1:]:
        if q > peak:
            peak = q
    if len(qualities) == 1:
        ending = qualities[0]
    else:
        ending = (qualities[-2] + qualities[-1]) / 2.0
    return peak_w * peak + end_w * ending


def test_peak_end_constant_trajectory():
    w = ObjectiveWeights()
    assert peak_end_quality(make_traj([0.5, 0.5, 0.5, 0.5]), w) == pytest.approx(0.5)


def test_peak_end_hand_evaluated():
    w = ObjectiveWeights(peak_weight=0.5, end_weight=0.5)
    traj = make_traj([0.5, 0.7, 0.9, 0.6])
    assert peak_end_quality(traj, w) == pytest.approx(0.825)


def test_peak_end_single_turn_degenerate():
    w = ObjectiveWeights(peak_weight=0.5, end_weight=0.5)
    assert peak_end_quality(make_traj([0.2]), w) == pytest.approx(0.2)


def test_peak_end_matches_brute_force_oracle():
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(1, 16)
        qs = [rng.random() for _ in range(n)]
        pw = rng.random()
        w = ObjectiveWeights(peak_weight=pw, end_weight=1.0 - pw)
        assert peak_end_quality(make_traj(qs), w) == pytest.approx(
            brute_force_peak_end(qs, pw, 1.0 - pw), abs=1e-12
        )


def test_peak_end_invariant_under_prefix_permutation():
    rng = random.Random(29)
    w = ObjectiveWeights()
    for _ in range(300):
        n = rng.randint(3, 12)
        qs = [rng.random() for _ in range(n)]
        shuffled = qs[:-2]
        rng.shuffle(shuffled)
        permuted = shuffled + qs[-2:]
        assert peak_end_quality(make_traj(qs), w) == pytest.approx(
            peak_end_quality(make_traj(permuted), w), abs=1e-12
        )


def test_peak_end_bounded_by_extremes():
    rng = random.Random(31)
    for _ in range(300):
        qs = [rng.random() for _ in range(rng.randint(1, 10))]
        pw = rng.random()
        w = ObjectiveWeights(peak_weight=pw, end_weight=1.0 - pw)
        score = peak_end_quality(make_traj(qs), w)
        assert min(qs) - 1e-12 <= score <= max(qs) + 1e-12


def test_average_frustration_values():
    assert average_frustration(make_traj([0.5] * 3, [0.0, 0.0, 0.0])) == 0.0
    assert average_frustration(make_traj([0.5] * 3, [0.2, 0.4, 0.6])) == pytest.approx(0.4)
    assert average_frustration(make_traj([0.5], [1.0])) == 1.0


def test_cost_breakdown_rejects_negative():
    with pytest.raises(ValueError):
        CostBreakdown(policy_cost=-1)


def test_reuse_probability_logistic_values():
    assert reuse_probability(0.0, 0.0, ReuseParams(bias=0.0)) == pytest.approx(0.5)
    assert reuse_probability(1.0, 0.0) == pytest.approx(0.8807970779, abs=1e-9)


def test_reuse_probability_monotone_and_bounded():
    rng = random.Random(23)
    for _ in range(300):
        q, f = rng.random(), rng.random()
        r = reuse_probability(q, f)
        assert 0.0 < r < 1.0
        eps = rng.random() * (1 - q)
        if eps > 0:
            assert reuse_probability(min(q + eps, 1.0), f) > r
        eps_f = rng.random() * (1 - f)
        if eps_f > 0:
            assert reuse_probability(q, min(f + eps_f, 1.0)) < r


def test_reuse_per_cost_values():
    assert reuse_per_cost(0.0, 500) == 0.0
    assert reuse_per_cost(0.6, 2000) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        reuse_per_cost(0.5, 0)


def test_objective_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(peak_weight=0.6, end_weight=0.6)
    with pytest.raises(ValueError):
        ObjectiveWeights(peak_weight=-0.1, end_weight=1.1)


def test_trajectory_requires_contiguous_indices():
    turns = (
        TurnRecord(index=1, quality=0.5, frustration=0.0, tokens_spent=10),
        TurnRecord(index=3, quality=0.5, frustration=0.0, tokens_spent=10),
    )
    with pytest.raises(ValueError):
        Trajectory(turns=turns, budget_cap=100, cost=CostBreakdown(policy_cost=20))


def test_trajectory_rejects_empty():
    with pytest.raises(ValueError):
        Trajectory(turns=(), budget_cap=100)


def test_trajectory_rejects_cost_over_cap():
    turns = (TurnRecord(index=1, quality=0.5, frustration=0.0, tokens_spent=200),)
    with pytest.raises(ValueError):
        Trajectory(turns=turns, budget_cap=100, cost=CostBreakdown(policy_cost=200))


def test_turn_record_validation():
    with pytest.raises(ValueError):
        TurnRecord(index=0, quality=0.5, frustration=0.0, tokens_spent=1)
    with pytest.raises(ValueError):
        TurnRecord(index=1, quality=1.5, frustration=0.0, tokens_spent=1)
    with pytest.raises(ValueError):
        TurnRecord(index=1, quality=0.5, frustration=0.0, tokens_spent=-1)
