"""Golden pin: the default simulation blocks' records, byte for byte.

The hash covers every record of every ``executor: abm`` default block, run
in sorted block-name order and serialized exactly as the run store writes
it. A change that moves it changes what the records hold, and must re-pin the
hash on purpose. A deliberate scheduler fix re-pins it and gives the old and
new hash in CHANGES.md; only a change to the simulator stream also bumps the
simulator stream version. On a mismatch the message also gives each
block's own digest, so a deliberate re-pin shows which block moved.
"""

from __future__ import annotations

import hashlib
import json

from apemo.benchmark import run_block
from apemo.config import load_config

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
