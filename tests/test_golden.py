"""Golden pin: the default simulation blocks' records, byte for byte.

The hash covers every record of every ``executor: abm`` default block, run
in sorted block-name order and serialized exactly as the run store writes
it. A change that moves it changes what the records hold, and must re-pin the
hash on purpose. A deliberate scheduler fix re-pins it and gives the old and
new hash in CHANGES.md; only a change to the simulator stream also bumps the
simulator stream version.
"""

from __future__ import annotations

import hashlib
import json

from apemo.benchmark import run_block
from apemo.config import load_config

GOLDEN_PREFIX = "2b749a2981a41253"


def test_default_abm_blocks_records_are_pinned():
    cfg = load_config()
    h = hashlib.sha256()
    for name in sorted(cfg.blocks):
        block = cfg.blocks[name]
        if block.executor != "abm":
            continue
        for record in run_block(block, cfg.settings):
            h.update(json.dumps(record.to_dict(), sort_keys=True).encode("utf-8"))
    digest = h.hexdigest()
    assert digest[:16] == GOLDEN_PREFIX, f"records changed: sha256 {digest}"
