"""Seeded agent-based simulator of turn-level quality dynamics.

The latent quality process is a clamped random walk: per-turn drift,
Gaussian noise, a saturating compute uplift, and an optional one-shot
trap impulse followed by geometric passive recovery. Synthetic output
digests are generated so that repetition and drift statistics rise as
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
from .signals import TextDigest, tokenize

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


@dataclass
class AbmState:
    """Per-step simulator state: latent level, process parameters, RNG."""

    latent_quality: float
    drift_rate: float
    noise_sd: float
    uplift_gain: float
    uplift_half: float
    rng: np.random.Generator
    digest_tokens: int = 32
    task_tokens: tuple[str, ...] = ()
    ngram_order: int = 2
    apply_trap_impulse: bool = True


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


def _synthetic_digest(
    raw_level: float,
    turn: int,
    rng: np.random.Generator,
    base_tokens: int,
    task_tokens: tuple[str, ...],
    order: int,
) -> TextDigest:
    """Generate a digest whose repetition/drift statistics degrade with raw_level.

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
    # n_task + n_fresh + n_fill == length, so token_count is the synthetic output length
    return TextDigest.from_tokens(tokens, order)


def abm_step(
    state: AbmState,
    allocated_tokens: int,
    turn: int,
    trap: TrapSpec | None = None,
) -> tuple[float, TextDigest, int]:
    """Advance the latent process one turn and emit (quality, digest, tokens_used).

    quality = clamp(latent + drift + noise + uplift(tokens) + trap shift).
    The digest is generated from the pre-uplift level, so it depends only on
    the seed and environment, never on the allocation.
    """
    if allocated_tokens < 0:
        raise ValueError(f"allocated_tokens must be >= 0, got {allocated_tokens}")
    noise = float(state.rng.normal(0.0, state.noise_sd)) if state.noise_sd > 0 else 0.0
    raw = _clamp01(
        state.latent_quality
        + state.drift_rate
        + noise
        + trap_shift(trap, turn, state.apply_trap_impulse)
    )
    quality = _clamp01(raw + compute_uplift(state.uplift_gain, state.uplift_half, allocated_tokens))
    digest = _synthetic_digest(
        raw, turn, state.rng, state.digest_tokens, state.task_tokens, state.ngram_order
    )
    return quality, digest, allocated_tokens


@lru_cache(maxsize=64)
def _task_tokens(task: str) -> tuple[str, ...]:
    """Task wording the digest samples from, tokenized once per task string."""
    return tuple(tokenize(task))


class AbmExecutor:
    """Deterministic simulator bound to a config, seed, and optional trap."""

    def __init__(
        self,
        cfg: AbmConfig,
        seed: int,
        trap: TrapSpec | None = None,
        ngram_order: int = 2,
    ):
        self.cfg = cfg
        self.seed = seed
        self.trap = trap
        self.ngram_order = ngram_order

    def execute_turn(
        self, ctx: TurnContext, allocated_tokens: int, seed: int
    ) -> TurnOutcome:
        rng = np.random.default_rng((self.seed, seed, ctx.turn, ctx.attempt))
        prior = ctx.prior_quality if ctx.prior_quality is not None else self.cfg.initial_quality
        state = AbmState(
            latent_quality=prior,
            drift_rate=self.cfg.drift_rate,
            noise_sd=self.cfg.noise_sd,
            uplift_gain=self.cfg.uplift_gain,
            uplift_half=self.cfg.uplift_half,
            rng=rng,
            digest_tokens=self.cfg.digest_tokens,
            task_tokens=_task_tokens(ctx.task),
            ngram_order=self.ngram_order,
            apply_trap_impulse=(ctx.attempt == 0),
        )
        quality, digest, used = abm_step(state, allocated_tokens, ctx.turn, self.trap)
        trapped = (
            self.trap is not None
            and ctx.turn == self.trap.trap_turn
            and ctx.attempt == 0
        )
        return TurnOutcome(
            digest=digest,
            tokens_used=used,
            quality=quality,
            text="",
            trapped=trapped,
        )

