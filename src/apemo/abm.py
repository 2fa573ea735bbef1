"""Seeded agent-based simulator of turn-level quality dynamics.

The latent quality process is a clamped random walk: per-turn drift,
Gaussian noise, a saturating compute uplift, and an optional one-shot
trap impulse followed by geometric passive recovery. Synthetic output
tokens are generated so that repetition and drift statistics rise as
the latent level falls, giving the affect proxies real signal.

Every draw derives from (executor seed, trajectory seed, turn, attempt),
so replays are exact and policies sharing a seed see identical noise on
matching turns regardless of how they allocate compute. Each attempt's
uniform vector is one draw from a Philox generator keyed by the two seeds
with its counter set to (turn, attempt); every random value of the step is
derived from that vector (see ``abm_step``). Each thread keeps one Philox,
built at its first draw (so importing this module loads no numpy), and the
vectors of its last few streams. ``run_block`` runs the policies of one
(model, seed) on one thread, so they draw each vector of an episode once at
any worker count; executors hold no mutable state and may be shared between
threads.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .executor import TurnContext, TurnOutcome
from .signals import Token, tokenize

# Bumped whenever the values an attempt draws, or how they are derived, change.
STREAM_VERSION = 2

STALL_TOKENS = ("again", "loop", "redo", "stuck", "same", "retry")
# uniforms ahead of the token slots: two for the noise, one for the length jitter
_HEAD = 3
_MAX_JITTER = 4
_FRESH_IDS = 1_000_000
# Streams whose vectors a thread keeps. run_block runs the policies of one
# (model, seed) back to back over the same episodes, so a few streams serve
# every policy after the first; the bound keeps memory flat on any grid.
_CACHED_STREAMS = 8
_KEY_WORD = 0xFFFF_FFFF_FFFF_FFFF


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


def uniform_count(cfg: AbmConfig) -> int:
    """Length of the uniform vector one attempt draws: head values plus one per token slot."""
    return _HEAD + cfg.digest_tokens + _MAX_JITTER


def _synthetic_tokens(
    raw_level: float,
    turn: int,
    u: Sequence[float],
    base_tokens: int,
    task_tokens: tuple[str, ...],
) -> tuple[Token, ...]:
    """Generate output tokens whose repetition/drift statistics degrade with raw_level.

    Low raw levels produce mostly stall filler (high cross-turn n-gram
    overlap); high levels produce task tokens plus fresh content. Token i
    is picked by uniform u[_HEAD + i]: task picks, then fresh int ids unique
    to the turn, then stall picks.
    """
    length = base_tokens + int(u[2] * (_MAX_JITTER + 1))
    n_fill = int(round(length * (1.0 - raw_level) * 0.8))
    n_task = int(round(length * raw_level * 0.5)) if task_tokens else 0
    n_task = min(n_task, length - n_fill)
    fresh_end = _HEAD + length - n_fill
    task_end = _HEAD + n_task

    k = len(task_tokens)
    tokens: list[Token] = [task_tokens[int(x * k)] for x in u[_HEAD:task_end]]
    base = turn * _FRESH_IDS
    tokens.extend([base + int(x * _FRESH_IDS) for x in u[task_end:fresh_end]])
    k = len(STALL_TOKENS)
    tokens.extend([STALL_TOKENS[int(x * k)] for x in u[fresh_end:_HEAD + length]])
    return tuple(tokens)


def abm_step(
    cfg: AbmConfig,
    u: Sequence[float],
    latent: float,
    allocated_tokens: int,
    turn: int,
    task_tokens: tuple[str, ...],
    trap: TrapSpec | None = None,
    apply_trap_impulse: bool = True,
) -> tuple[float, tuple[Token, ...]]:
    """Advance the latent process one turn and emit (quality, output tokens).

    quality = clamp(latent + drift + noise + uplift(tokens) + trap shift).
    u holds uniform_count(cfg) values in [0, 1): u[0] and u[1] give the
    Gaussian noise by Box-Muller, u[2] the length jitter, and the rest one
    value per token slot. The tokens are generated from the pre-uplift
    level, so they depend only on the seed and environment, never on the
    allocation.
    """
    if allocated_tokens < 0:
        raise ValueError(f"allocated_tokens must be >= 0, got {allocated_tokens}")
    if len(u) < uniform_count(cfg):
        raise ValueError(f"need {uniform_count(cfg)} uniforms, got {len(u)}")
    noise = 0.0
    if cfg.noise_sd > 0:
        # 1 - u[0] lies in (0, 1], so the log is finite
        radius = math.sqrt(-2.0 * math.log(1.0 - u[0]))
        noise = cfg.noise_sd * radius * math.cos(2.0 * math.pi * u[1])
    # the skipped terms are exactly 0.0, so the sums keep their order and value
    raw = latent + cfg.drift_rate + noise
    if trap is not None:
        raw += trap_shift(trap, turn, apply_trap_impulse)
    raw = _clamp01(raw)
    quality = raw
    if allocated_tokens > 0:
        quality += compute_uplift(cfg.uplift_gain, cfg.uplift_half, allocated_tokens)
    quality = _clamp01(quality)
    tokens = _synthetic_tokens(raw, turn, u, cfg.digest_tokens, task_tokens)
    return quality, tokens


@lru_cache(maxsize=64)
def _task_tokens(task: str) -> tuple[str, ...]:
    """Task wording the synthetic output samples from, tokenized once per task string."""
    return tuple(tokenize(task))


class _Draws(threading.local):
    """One thread's FIFO of drawn streams, and the Philox generator with its
    state dict that the thread builds at its first miss."""

    def __init__(self) -> None:
        self.bitgen = None
        self.streams: dict[tuple[int, int, int], dict[tuple[int, int], tuple[float, ...]]] = {}

    def build(self) -> None:
        import numpy as np  # only a simulator draw needs numpy

        self.bitgen = np.random.Philox(0)
        self.gen = np.random.Generator(self.bitgen)
        self.state = self.bitgen.state


_draws = _Draws()


def _uniforms(exec_seed: int, seed: int, turn: int, attempt: int, n: int) -> tuple[float, ...]:
    """n uniforms from Philox key (exec_seed, seed), counter (0, turn, attempt, 0).

    A miss resets the thread's generator (built at its first miss) to that
    key and counter and makes one random(n) call; the vector is kept under
    its stream (exec_seed, seed, n) in a FIFO of _CACHED_STREAMS streams.
    """
    streams = _draws.streams
    stream = streams.get((exec_seed, seed, n))
    if stream is None:
        if len(streams) >= _CACHED_STREAMS:
            del streams[next(iter(streams))]
        stream = streams[(exec_seed, seed, n)] = {}
    u = stream.get((turn, attempt))
    if u is None:
        if _draws.bitgen is None:
            _draws.build()
        state = _draws.state
        # a negative seed becomes its two's-complement word, as Philox(key=...)
        # reads it; the lowest counter word counts the blocks within one draw
        state["state"]["key"][:] = (exec_seed & _KEY_WORD, seed & _KEY_WORD)
        counter = state["state"]["counter"]
        counter[1] = turn
        counter[2] = attempt
        _draws.bitgen.state = state
        u = stream[(turn, attempt)] = tuple(_draws.gen.random(n).tolist())
    return u


class AbmExecutor:
    """Deterministic simulator bound to a config, seed, and optional trap.

    The outcome of an attempt is a pure function of (seed, trajectory seed,
    turn, attempt); the instance holds no mutable state, so one executor may
    run attempts from several threads at once.
    """

    def __init__(self, cfg: AbmConfig, seed: int, trap: TrapSpec | None = None):
        self.cfg = cfg
        self.seed = seed
        self.trap = trap
        self._n = uniform_count(cfg)

    def execute_turn(
        self, ctx: TurnContext, allocated_tokens: int, seed: int
    ) -> TurnOutcome:
        prior = ctx.prior_quality if ctx.prior_quality is not None else self.cfg.initial_quality
        quality, tokens = abm_step(
            self.cfg,
            _uniforms(self.seed, seed, ctx.turn, ctx.attempt, self._n),
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
