"""A fixed reference loop that measures how fast this machine runs right now.

The benchmark's host shares its CPUs with other tenants, and the same pass
can take up to twice as long from one twenty-second stretch to the next:
the process's CPU time stretches with its wall time, so the CPU itself runs
slower, and no statistic of one run's passes removes a slow stretch that
lasts the whole run. The runner therefore brackets every timed pass with
this loop and scales the pass's times to the loop's nominal duration:

    reported = measured * NOMINAL_S / mean(reference before, reference after)

The loop's mix resembles the benchmark's: string formatting, dict and
frozenset building, and a NumPy index gather. It runs in child processes
(this file as a script, answering each ``speed`` line on stdin) that never
import the package, so nothing the package does to its own interpreter (a
busy background thread, a larger heap, other collector settings) moves the
reference along with the pass it scales.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from child import ROOT, ChildProcess

# Sets the scale of reported times: a pass is reported as it would measure
# while the loop takes NOMINAL_S. Close to the loop's typical duration on the
# 2-vCPU machine of README.md's baseline, so reported and wall-clock figures
# stay close there.
NOMINAL_S = 0.024

_GATHER = np.arange(2048, dtype=float)
_INDEX = np.random.default_rng(0).integers(0, 2048, size=(16, 2048))


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference loop."""
    t0 = time.perf_counter()
    table = {}
    for i in range(30_000):
        key = f"t{i % 89}w{i}"
        table[key] = len(key)
    grams = frozenset(" ".join((str(i), str(i + 1))) for i in range(6_000))
    for _ in range(8):
        _GATHER[_INDEX].mean()
    del table, grams
    return time.perf_counter() - t0


def speed_factor(reference_before: float, reference_after: float) -> float:
    """Multiplier that turns a time measured between two references into nominal time."""
    return NOMINAL_S * 2.0 / (reference_before + reference_after)


class _SpeedChild(ChildProcess):
    script = ROOT / "bench" / "speed.py"


class SpeedProbe:
    """Runs the reference loop in `copies` child processes at once.

    The runner starts one copy per CPU (at most two) and takes the copies'
    mean, so the sample covers every CPU a workload may run on: llm_mock
    keeps both busy (the client here, the server in its child), and a
    single-threaded workload is not held on one. Out of the workload's
    process the loop tracks the host less closely than in it (README.md),
    but the package cannot move it.
    """

    def __init__(self, copies: int = 1) -> None:
        self._children = [_SpeedChild() for _ in range(copies)]

    def reference_seconds(self) -> float:
        """One run of the reference loop in every copy, averaged."""
        for child in self._children:
            child.send("speed")
        return statistics.mean(child.receive()["reference_s"] for child in self._children)

    def __enter__(self) -> "SpeedProbe":
        try:
            for child in self._children:
                child.start()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        for child in self._children:
            child.close()

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if line.strip() == "speed":
            print(json.dumps({"reference_s": reference_seconds()}), flush=True)


if __name__ == "__main__":
    _serve()
