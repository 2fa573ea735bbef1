"""Turn-execution contract shared by the scheduler and its executors.

An executor is a pure function of (context, allocated tokens, seed): the
scheduler owns all cross-turn state and passes the kept history forward
through the context. This keeps replays exact and lets many trajectories
run concurrently. The block runner relies on it: on a simulator block, a
detecting policy's scheduler.run_trajectory(twin=...) takes the logged
turns of its twin trait row (scheduler.PolicyTraits.twin) up to its first
negative-peak repair, all of them when there is none, and executes only the
rest. A model server's replies are not such a function, so model-server
blocks share no runs. What an executor keeps between calls only saves work:
the simulator keeps, per thread, a Philox generator built at the thread's
first draw and the uniform vectors it has drawn, each a pure function of
its key. Executors return the output's tokens; the scheduler reads the
behavioral proxies from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


class ExecutorError(RuntimeError):
    """A turn could not be executed; the scheduler records a fallback turn.

    tokens_used counts the completion tokens that the attempt's calls
    generated: those of the calls finished before the failure, plus what the
    failing call is known to have generated (the cap of a reply that reports
    more than its cap); the scheduler charges them.
    """

    tokens_used: int = 0


@dataclass(frozen=True, slots=True)
class TurnContext:
    """Everything an executor may condition on for one execution attempt.

    attempt counts prior executions of the same turn (0 = first pass,
    1+ = repair and ending re-executions). prior_quality is the kept quality of the
    previous turn, None on the first turn. history holds the kept output
    text of turns 1..t-1 in order.
    """

    task: str
    turn: int
    horizon: int
    attempt: int = 0
    prior_quality: float | None = None
    critique: str | None = None
    history: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class TurnOutcome:
    """Result of one execution attempt.

    tokens is the output split the way signals.tokenize splits text: str
    tokens for text, plus int ids for the simulator's fresh content.
    """

    tokens: tuple[str | int, ...]
    tokens_used: int
    quality: float
    text: str = ""
    trapped: bool = False

    def __post_init__(self) -> None:
        if self.tokens_used < 0:
            raise ValueError(f"tokens_used must be >= 0, got {self.tokens_used}")
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {self.quality}")


class Executor(Protocol):
    def execute_turn(
        self, ctx: TurnContext, allocated_tokens: int, seed: int
    ) -> TurnOutcome: ...


def fallback_outcome(tokens_used: int = 0) -> TurnOutcome:
    """Zero-quality placeholder recorded when an executor fails a turn."""
    return TurnOutcome(tokens=(), tokens_used=tokens_used, quality=0.0)
