"""Seeded agent-based simulator of turn-level quality dynamics.

The latent quality process is a clamped random walk: per-turn drift,
Gaussian noise, a saturating compute uplift, and an optional one-shot
trap impulse followed by geometric passive recovery. Synthetic output
tokens are generated so that repetition and drift statistics rise as
the latent level falls, giving the affect proxies real signal.

Every draw derives from (executor seed, trajectory seed, turn, attempt),
so replays are exact and policies sharing a seed see identical noise on
matching turns regardless of how they allocate compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .executor import TurnContext, TurnOutcome
from .signals import tokenize

STALL_TOKENS = ("again", "loop", "redo", "stuck", "same", "retry")


@dataclass(frozen=True)
class TrapSpec:
    """One-shot quality impulse at trap_turn with geometric passive recovery."""

    trap_turn: int
    severity: float
    recovery_rate: float = 0.3

    def __post_init__(self) -> None:
        if self.trap_turn < 1:
            raise ValueError(f"trap_turn must be >= 1, got {self.trap_turn}")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError(f"severity must be in (0, 1], got {self.severity}")
        if not 0.0 <= self.recovery_rate <= 1.0:
            raise ValueError(f"recovery_rate must be in [0, 1], got {self.recovery_rate}")


@dataclass(frozen=True)
class AbmConfig:
    """Process parameters for the simulator."""

    initial_quality: float = 0.6
    drift_rate: float = -0.02
    noise_sd: float = 0.05
    uplift_gain: float = 0.25
    uplift_half: float = 800.0
    digest_tokens: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial_quality <= 1.0:
            raise ValueError(f"initial_quality must be in [0, 1], got {self.initial_quality}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.uplift_gain < 0:
            raise ValueError(f"uplift_gain must be >= 0, got {self.uplift_gain}")
        if self.uplift_half <= 0:
            raise ValueError(f"uplift_half must be > 0, got {self.uplift_half}")
        if self.digest_tokens < 8:
            raise ValueError(f"digest_tokens must be >= 8, got {self.digest_tokens}")


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def compute_uplift(gain: float, half: float, tokens: int) -> float:
    """Saturating quality response to allocated compute."""
    if tokens <= 0:
        return 0.0
    return gain * tokens / (tokens + half)


def trap_shift(trap: TrapSpec | None, turn: int, apply_impulse: bool = True) -> float:
    """Signed latent shift from the trap channel at this turn.

    Negative severity lands exactly at the trap turn; afterwards a geometric
    fraction of the damage is passively returned each turn. Repair
    re-executions counter the injected error, so they skip the impulse.
    """
    if trap is None:
        return 0.0
    if turn == trap.trap_turn:
        return -trap.severity if apply_impulse else 0.0
    if turn > trap.trap_turn:
        k = turn - trap.trap_turn
        remaining = trap.severity * (1.0 - trap.recovery_rate) ** (k - 1)
        return trap.recovery_rate * remaining
    return 0.0


def _synthetic_tokens(
    raw_level: float,
    turn: int,
    rng: np.random.Generator,
    base_tokens: int,
    task_tokens: tuple[str, ...],
) -> tuple[str, ...]:
    """Generate output tokens whose repetition/drift statistics degrade with raw_level.

    Low raw levels produce mostly stall filler (high cross-turn n-gram
    overlap); high levels produce task tokens plus fresh content.
    """
    length = base_tokens + int(rng.integers(0, 5))
    n_fill = int(round(length * (1.0 - raw_level) * 0.8))
    n_task = int(round(length * raw_level * 0.5)) if task_tokens else 0
    n_task = min(n_task, length - n_fill)
    n_fresh = length - n_fill - n_task

    tokens: list[str] = []
    if n_task > 0:
        idx = rng.integers(0, len(task_tokens), size=n_task)
        tokens.extend(task_tokens[i] for i in idx.tolist())
    # one vector draw yields the same values and end state as n_fresh scalar draws
    tokens.extend(f"t{turn}w{w}" for w in rng.integers(0, 10**6, size=n_fresh).tolist())
    if n_fill > 0:
        idx = rng.integers(0, len(STALL_TOKENS), size=n_fill)
        tokens.extend(STALL_TOKENS[i] for i in idx.tolist())
    # n_task + n_fresh + n_fill == length, the synthetic output length
    return tuple(tokens)


def abm_step(
    cfg: AbmConfig,
    rng: np.random.Generator,
    latent: float,
    allocated_tokens: int,
    turn: int,
    task_tokens: tuple[str, ...],
    trap: TrapSpec | None = None,
    apply_trap_impulse: bool = True,
) -> tuple[float, tuple[str, ...]]:
    """Advance the latent process one turn and emit (quality, output tokens).

    quality = clamp(latent + drift + noise + uplift(tokens) + trap shift).
    The tokens are generated from the pre-uplift level, so they depend only
    on the seed and environment, never on the allocation.
    """
    if allocated_tokens < 0:
        raise ValueError(f"allocated_tokens must be >= 0, got {allocated_tokens}")
    noise = float(rng.normal(0.0, cfg.noise_sd)) if cfg.noise_sd > 0 else 0.0
    raw = _clamp01(latent + cfg.drift_rate + noise + trap_shift(trap, turn, apply_trap_impulse))
    quality = _clamp01(raw + compute_uplift(cfg.uplift_gain, cfg.uplift_half, allocated_tokens))
    tokens = _synthetic_tokens(raw, turn, rng, cfg.digest_tokens, task_tokens)
    return quality, tokens


@lru_cache(maxsize=64)
def _task_tokens(task: str) -> tuple[str, ...]:
    """Task wording the synthetic output samples from, tokenized once per task string."""
    return tuple(tokenize(task))


class AbmExecutor:
    """Deterministic simulator bound to a config, seed, and optional trap."""

    def __init__(self, cfg: AbmConfig, seed: int, trap: TrapSpec | None = None):
        self.cfg = cfg
        self.seed = seed
        self.trap = trap

    def execute_turn(
        self, ctx: TurnContext, allocated_tokens: int, seed: int
    ) -> TurnOutcome:
        rng = np.random.default_rng((self.seed, seed, ctx.turn, ctx.attempt))
        prior = ctx.prior_quality if ctx.prior_quality is not None else self.cfg.initial_quality
        quality, tokens = abm_step(
            self.cfg,
            rng,
            prior,
            allocated_tokens,
            ctx.turn,
            _task_tokens(ctx.task),
            self.trap,
            apply_trap_impulse=(ctx.attempt == 0),
        )
        trapped = (
            self.trap is not None
            and ctx.turn == self.trap.trap_turn
            and ctx.attempt == 0
        )
        return TurnOutcome(
            tokens=tokens,
            tokens_used=allocated_tokens,
            quality=quality,
            trapped=trapped,
        )
