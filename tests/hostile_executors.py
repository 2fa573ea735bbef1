"""Misbehaving executors shared by the scheduler tests and the acceptance fuzz.

Each wraps a simulator executor and breaks the executor contract one way;
``failed`` records whether any attempt raised, so a test can check that
``fallback`` marks exactly the trajectories where one did.
"""

from __future__ import annotations

from dataclasses import replace

from apemo.executor import ExecutorError, TurnContext, TurnOutcome


class HostileExecutor:
    """Wraps the simulator; failed records whether any attempt raised."""

    def __init__(self, inner):
        self.inner = inner
        self.failed = False


class OverReportingExecutor(HostileExecutor):
    """Simulator that claims more tokens than each attempt was allocated."""

    def execute_turn(self, ctx: TurnContext, allocated_tokens: int, seed: int) -> TurnOutcome:
        out = self.inner.execute_turn(ctx, allocated_tokens, seed)
        return replace(out, tokens_used=allocated_tokens + 50)


class RetryFailingExecutor(HostileExecutor):
    """Simulator whose repair and ending attempts raise ExecutorError."""

    def execute_turn(self, ctx: TurnContext, allocated_tokens: int, seed: int) -> TurnOutcome:
        if ctx.attempt > 0:
            self.failed = True
            raise ExecutorError("injected retry failure")
        return self.inner.execute_turn(ctx, allocated_tokens, seed)


class SilentExecutor(HostileExecutor):
    """Simulator that reports no tokens used and returns empty output."""

    def execute_turn(self, ctx: TurnContext, allocated_tokens: int, seed: int) -> TurnOutcome:
        out = self.inner.execute_turn(ctx, allocated_tokens, seed)
        return replace(out, tokens=(), tokens_used=0)


HOSTILE_EXECUTORS = (OverReportingExecutor, RetryFailingExecutor, SilentExecutor)
