"""Simulator dynamics: update rule, trap channel, determinism, proxy signal."""

from __future__ import annotations

import json

import numpy as np
import pytest

from apemo import abm
from apemo.abm import (
    AbmConfig,
    AbmExecutor,
    TrapSpec,
    abm_step,
    compute_uplift,
    trap_shift,
    uniform_count,
)
from apemo.benchmark import BlockConfig, RuntimeSettings, derive_seed, run_block
from apemo.executor import TurnContext
from apemo.scheduler import PolicyKind
from apemo.signals import TextDigest, repetition_similarity

QUIET = AbmConfig(drift_rate=0.0, noise_sd=0.0)
TASK = tuple("plan the route and estimate cost".split())


def draws(cfg, seed):
    """One attempt's uniform vector, drawn from a generator seeded with seed."""
    return np.random.default_rng(seed).random(uniform_count(cfg)).tolist()


def step(latent, tokens, turn, *, trap=None, seed=(0, 1)):
    return abm_step(QUIET, draws(QUIET, seed), latent, tokens, turn, TASK, trap)


def test_identity_dynamics_without_inputs():
    # zero tokens, zero drift, zero noise, no trap: quality unchanged
    q, _ = step(0.55, 0, 1)
    assert q == pytest.approx(0.55)


def test_trap_impulse_direct_evaluation():
    # latent 0.8, severity 0.4, no noise: quality = 0.4 + uplift(tokens)
    q, _ = step(0.8, 500, 4, trap=TrapSpec(4, 0.4))
    assert q == pytest.approx(0.4 + compute_uplift(0.25, 800.0, 500))


def test_uplift_monotone_in_tokens():
    qa, _ = step(0.5, 2000, 1)
    qb, _ = step(0.5, 500, 1)
    assert qa >= qb


def test_uplift_saturates():
    u1 = compute_uplift(0.25, 800.0, 800)
    u2 = compute_uplift(0.25, 800.0, 1600)
    u3 = compute_uplift(0.25, 800.0, 3200)
    assert u2 - u1 > u3 - u2  # diminishing returns
    assert u3 < 0.25


def test_trap_shift_geometric_recovery():
    trap = TrapSpec(4, 0.4, recovery_rate=0.3)
    assert trap_shift(trap, 3) == 0.0
    assert trap_shift(trap, 4) == pytest.approx(-0.4)
    assert trap_shift(trap, 5) == pytest.approx(0.3 * 0.4)
    assert trap_shift(trap, 6) == pytest.approx(0.3 * 0.4 * 0.7)
    # repair retries skip the impulse but keep the recovery channel
    assert trap_shift(trap, 4, apply_impulse=False) == 0.0
    assert trap_shift(trap, 5, apply_impulse=False) == pytest.approx(0.12)


def test_closed_form_fixed_point_under_constant_allocation():
    # drift 0, noise 0: q_{t+1} = min(1, q_t + uplift(a)); reaches 1 and stays
    cfg = AbmConfig(initial_quality=0.6, drift_rate=0.0, noise_sd=0.0)
    executor = AbmExecutor(cfg, seed=3)
    alloc = 1000
    expected = 0.6
    qualities = []
    prior = None
    for turn in range(1, 9):
        ctx = TurnContext(task="plan the route", turn=turn, horizon=8, prior_quality=prior)
        out = executor.execute_turn(ctx, alloc, seed=3)
        qualities.append(out.quality)
        prior = out.quality
        expected = min(1.0, expected + compute_uplift(cfg.uplift_gain, cfg.uplift_half, alloc))
        assert out.quality == pytest.approx(expected, abs=1e-12)
    assert qualities[-1] == qualities[-2] == 1.0  # constant at the fixed point


def test_same_seed_replays_identically():
    cfg = AbmConfig()
    trap = TrapSpec(3, 0.5)
    outs = []
    for _ in range(2):
        executor = AbmExecutor(cfg, seed=11, trap=trap)
        prior = None
        seq = []
        for turn in range(1, 7):
            ctx = TurnContext(task="plan the route", turn=turn, horizon=6, prior_quality=prior)
            out = executor.execute_turn(ctx, 300, seed=11)
            seq.append((out.quality, out.tokens))
            prior = out.quality
        outs.append(seq)
    assert outs[0] == outs[1]


def test_different_seeds_differ():
    cfg = AbmConfig()
    ctx = TurnContext(task="plan the route", turn=1, horizon=4, prior_quality=0.6)
    a = AbmExecutor(cfg, seed=1).execute_turn(ctx, 300, seed=1)
    b = AbmExecutor(cfg, seed=2).execute_turn(ctx, 300, seed=2)
    assert a.quality != b.quality or a.tokens != b.tokens


def test_digest_is_allocation_independent():
    # same seed and state, different allocations: identical tokens, different quality
    cfg = AbmConfig()
    ctx = TurnContext(task="plan the route", turn=1, horizon=4, prior_quality=0.6)
    a = AbmExecutor(cfg, seed=5).execute_turn(ctx, 100, seed=5)
    b = AbmExecutor(cfg, seed=5).execute_turn(ctx, 1500, seed=5)
    assert a.tokens == b.tokens
    assert b.quality > a.quality


def test_trapped_flag_only_on_first_attempt_at_trap_turn():
    cfg = AbmConfig()
    executor = AbmExecutor(cfg, seed=4, trap=TrapSpec(2, 0.3))
    first = executor.execute_turn(
        TurnContext(task="t", turn=2, horizon=4, prior_quality=0.6), 100, seed=4
    )
    retry = executor.execute_turn(
        TurnContext(task="t", turn=2, horizon=4, prior_quality=0.6, attempt=1), 100, seed=4
    )
    other = executor.execute_turn(
        TurnContext(task="t", turn=3, horizon=4, prior_quality=0.6), 100, seed=4
    )
    assert first.trapped and not retry.trapped and not other.trapped


def _rank(values):
    order = np.argsort(values)
    ranks = np.empty(len(values))
    ranks[order] = np.arange(len(values))
    return ranks


def test_repetition_tracks_degradation_over_seeded_steps():
    # rank correlation between repetition similarity and (1 - latent) > 0.5
    rng = np.random.default_rng(42)
    task = tuple("plan the route and estimate total cost".split())
    cfg = AbmConfig(drift_rate=0.0, noise_sd=0.0, uplift_gain=0.0)
    latent = 0.9
    history = []
    reps, inv_latent = [], []
    for t in range(1, 1001):
        latent = float(np.clip(latent + rng.normal(0, 0.12), 0.02, 0.98))
        _, tokens = abm_step(cfg, draws(cfg, (1, t)), latent, 100, t, task)
        digest = TextDigest.from_tokens(tokens, 2)
        if history:
            reps.append(repetition_similarity(digest, history[-5:]))
            inv_latent.append(1.0 - latent)
        history.append(digest)
    ra, rb = _rank(reps), _rank(inv_latent)
    rho = float(np.corrcoef(ra, rb)[0, 1])
    assert rho > 0.5


def test_trap_reduces_quality_by_at_least_half_severity():
    # with noise_sd <= 0.05 the drop at the trap turn is >= severity / 2
    task = tuple("plan the route".split())
    cfg = AbmConfig(drift_rate=-0.02, noise_sd=0.05)
    severity = 0.4
    for seed in range(150):
        q_pre, _ = abm_step(cfg, draws(cfg, (seed, 3)), 0.8, 200, 3, task)
        q_trap, _ = abm_step(
            cfg, draws(cfg, (seed, 4)), q_pre, 200, 4, task, TrapSpec(4, severity)
        )
        assert q_pre - q_trap >= severity / 2


def test_config_validation():
    with pytest.raises(ValueError):
        AbmConfig(initial_quality=1.2)
    with pytest.raises(ValueError):
        AbmConfig(noise_sd=-0.1)
    with pytest.raises(ValueError):
        AbmConfig(uplift_half=0)
    with pytest.raises(ValueError):
        TrapSpec(0, 0.4)
    with pytest.raises(ValueError):
        TrapSpec(3, 0.0)
    with pytest.raises(ValueError):
        TrapSpec(3, 0.4, recovery_rate=1.5)


def test_step_rejects_negative_tokens():
    with pytest.raises(ValueError):
        step(0.5, -1, 1)


def test_step_rejects_a_short_uniform_vector():
    # a short vector would silently drop token slots at the longest jitter
    with pytest.raises(ValueError, match="uniforms"):
        abm_step(QUIET, draws(QUIET, 1)[:-1], 0.5, 10, 1, TASK)


def _outcome(executor, traj_seed, turn, attempt):
    ctx = TurnContext(
        task="plan the route", turn=turn, horizon=8, attempt=attempt, prior_quality=0.5
    )
    out = executor.execute_turn(ctx, 200, seed=traj_seed)
    return out.quality, out.tokens


def _defined_outcome(cfg, exec_seed, traj_seed, turn, attempt):
    """_outcome by definition: abm_step on Philox key (exec, traj), counter (0, turn, attempt, 0)."""
    bitgen = np.random.Philox(key=(exec_seed, traj_seed), counter=(0, turn, attempt, 0))
    u = np.random.Generator(bitgen).random(uniform_count(cfg)).tolist()
    return abm_step(cfg, u, 0.5, 200, turn, abm._task_tokens("plan the route"),
                    apply_trap_impulse=(attempt == 0))


def test_attempt_outcome_is_a_function_of_its_four_seeds_only():
    # (exec seed, traj seed, turn, attempt) fixes the outcome, whatever ran before it
    cfg = AbmConfig(noise_sd=0.12)
    keys = [(traj, turn, attempt) for traj in (5, 6) for turn in (1, 2, 7) for attempt in (0, 1, 2)]
    expected = {k: _defined_outcome(cfg, 9, *k) for k in keys}
    assert len(set(expected.values())) == len(keys)
    for k in keys:
        # a fresh executor on an empty draw cache draws the vector itself
        abm._draws.streams.clear()
        assert _outcome(AbmExecutor(cfg, seed=9), *k) == expected[k]
    reused = AbmExecutor(cfg, seed=9)
    shuffled = list(keys)
    np.random.default_rng(3).shuffle(shuffled)
    for k in shuffled + keys[::-1]:
        assert _outcome(reused, *k) == expected[k]


def test_retry_leaves_later_first_attempts_unchanged():
    cfg = AbmConfig(noise_sd=0.12)
    plain, retried = AbmExecutor(cfg, seed=4), AbmExecutor(cfg, seed=4)
    for turn in range(1, 9):
        if turn == 3:
            _outcome(retried, 4, turn, 0)
            _outcome(retried, 4, turn, 1)
        assert _outcome(retried, 4, turn, 0) == _outcome(plain, 4, turn, 0)


THREADS_BLOCK = BlockConfig(
    name="threads",
    executor="abm",
    models=("abm-a", "abm-b"),
    horizon=6,
    episodes=2,
    budget_cap=500,
    policies=(PolicyKind.TASK_AFFECT, PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
    seeds=(1, 2, 3),
    trap=TrapSpec(3, 0.4),
)


def test_thread_workers_write_the_same_records():
    def lines(workers):
        records = run_block(THREADS_BLOCK, RuntimeSettings(), workers=workers)
        return [json.dumps(r.to_dict(), sort_keys=True) for r in records]

    # at 3 workers the (model, seed) groups run on different threads, and their
    # records still come back in grid order
    assert lines(3) == lines(1)


def test_thread_workers_draw_each_vector_as_often_as_one_worker(monkeypatch):
    calls = []
    misses = []
    real = abm._uniforms

    def counting(exec_seed, seed, turn, attempt, n):
        # the calling thread's cache, read before the draw fills it
        stream = abm._draws.streams.get((exec_seed, seed, n))
        calls.append(1)
        if stream is None or (turn, attempt) not in stream:
            misses.append(1)
        return real(exec_seed, seed, turn, attempt, n)

    monkeypatch.setattr(abm, "_uniforms", counting)

    def count(workers):
        abm._draws.streams.clear()  # pool threads start with empty caches
        calls.clear()
        misses.clear()
        run_block(THREADS_BLOCK, RuntimeSettings(), workers=workers)
        return len(misses)

    once = count(1)
    assert 0 < once < len(calls)  # the policies after the first reuse the vectors
    assert count(2) == once
    assert count(3) == once


def test_draw_cache_holds_at_most_its_bound_after_a_larger_block():
    # 2 models x 16 seeds x 2 episodes = 64 streams, more than one abm_sweep pass (60)
    block = BlockConfig(
        name="many_streams",
        executor="abm",
        models=("abm-a", "abm-b"),
        horizon=4,
        episodes=2,
        budget_cap=400,
        policies=(PolicyKind.TASK_PEAK_END, PolicyKind.APEMO),
        seeds=tuple(range(1, 17)),
    )
    run_block(block, RuntimeSettings())
    n = uniform_count(block.abm)
    streams = [
        (s, s, n)
        for model in block.models
        for seed in block.seeds
        for s in (derive_seed(model, seed, e) for e in range(block.episodes))
    ]
    assert len(set(streams)) > 60
    # the FIFO keeps the last streams only, so a next pass starts on misses
    assert list(abm._draws.streams) == streams[-abm._CACHED_STREAMS:]
    assert streams[0] not in abm._draws.streams


def test_digest_token_count_is_output_length():
    # the third uniform is the length jitter: length = digest_tokens + int(5 * u[2])
    for seed in range(20):
        u = draws(QUIET, (seed, 1))
        length = 32 + int(u[2] * 5)
        for latent in (0.0, 0.3, 0.7, 1.0):
            _, tokens = step(latent, 0, 2, seed=(seed, 1))
            assert TextDigest.from_tokens(tokens, 2).token_count == length
    executor = AbmExecutor(AbmConfig(digest_tokens=12), seed=2)
    counts = {
        len(_outcome(executor, traj, turn, 0)[1]) for traj in range(10) for turn in range(1, 9)
    }
    assert counts == set(range(12, 17))


def test_task_tokenized_once_per_task(monkeypatch):
    calls = []
    real = abm.tokenize

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(abm, "tokenize", counting)
    abm._task_tokens.cache_clear()
    for seed in (2, 3):
        executor = AbmExecutor(AbmConfig(), seed=seed)
        for turn in range(1, 5):
            ctx = TurnContext(task="plan the route", turn=turn, horizon=4)
            executor.execute_turn(ctx, 100, seed=seed)
        executor.execute_turn(TurnContext(task="verify the budget", turn=1, horizon=4), 100, seed=seed)
    abm._task_tokens.cache_clear()
    assert calls == ["plan the route", "verify the budget"]
