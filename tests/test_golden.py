"""Golden pin: the default simulation blocks' records, byte for byte.

The hash covers every record of every ``executor: abm`` default block, run
in sorted block-name order and serialized exactly as the run store writes
it. A change that moves it changes what the records hold, and must re-pin the
hash on purpose. A deliberate scheduler fix re-pins it and gives the old and
new hash in CHANGES.md; only a change to the simulator stream also bumps the
simulator stream version. On a mismatch the message also gives each
block's own digest, so a deliberate re-pin shows which block moved.

A second pin covers one model-server block run against the mock server,
the same way.
"""

from __future__ import annotations

import hashlib
import json
import re

from apemo.abm import TrapSpec
from apemo.benchmark import BlockConfig, RuntimeSettings, run_block
from apemo.config import load_config
from apemo.llm import _TRAP_NOTE, ModelEndpoint
from apemo.mock_server import MockModelServer, default_script
from apemo.scheduler import PolicyKind

GOLDEN_PREFIX = "a900068a1848eba4"


def test_default_abm_blocks_records_are_pinned():
    cfg = load_config()
    h = hashlib.sha256()
    per_block = []
    for name in sorted(cfg.blocks):
        block = cfg.blocks[name]
        if block.executor != "abm":
            continue
        own = hashlib.sha256()
        for record in run_block(block, cfg.settings):
            line = json.dumps(record.to_dict(), sort_keys=True).encode("utf-8")
            h.update(line)
            own.update(line)
        per_block.append(f"{name} {own.hexdigest()[:16]}")
    digest = h.hexdigest()
    assert digest[:16] == GOLDEN_PREFIX, (
        f"records changed: sha256 {digest}; per block: {', '.join(per_block)}"
    )


# One model-server block against the mock server: every policy, a trap, odd
# caps. It pins the flow turn's call plan and the detection and repair
# decisions on real text, which the simulator golden above never reaches.
LLM_GOLDEN_PREFIX = "180e1a3a061734d9"

LLM_BLOCK = BlockConfig(
    name="llm_golden",
    executor="llm",
    models=("mock-model",),
    horizon=6,
    episodes=1,
    budget_cap=901,
    policies=(
        PolicyKind.UNIFORM,
        PolicyKind.TASK_PEAK_END,
        PolicyKind.APEMO,
        PolicyKind.PLAN_EXECUTE,
        PolicyKind.FLOW_PLAIN,
        PolicyKind.FLOW_TEMPORAL,
    ),
    seeds=(1, 2),
    trap=TrapSpec(trap_turn=3, severity=0.4),
)

_TURN_LINE = re.compile(r"^This is turn (\d+) of", re.MULTILINE)


def _golden_script(body: dict, index: int) -> str:
    """48 x "loop" for the trapped prompt; otherwise default_script keyed by the turn."""
    user = body["messages"][-1]["content"]
    if _TRAP_NOTE in user:
        return " ".join(["loop"] * 48)
    return default_script(body, int(_TURN_LINE.search(user).group(1)))


def test_model_server_block_records_are_pinned():
    with MockModelServer(script=_golden_script) as server:
        endpoint = ModelEndpoint(base_url=server.url, model_id="mock-model", timeout=5.0,
                                 max_retries=0, backoff_base=0.01)
        records = run_block(LLM_BLOCK, RuntimeSettings(endpoint=endpoint))
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record.to_dict(), sort_keys=True).encode("utf-8"))
    digest = h.hexdigest()
    assert digest[:16] == LLM_GOLDEN_PREFIX, f"model-server records changed: sha256 {digest}"
