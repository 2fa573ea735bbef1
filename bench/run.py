"""apemo benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload abm_sweep --seed 1 --seconds 20 --trace 0

Workloads (why each exists: README.md):
  abm_sweep     run_block on two simulator grids, workers=1, RunStore appends
  llm_mock      run_block on a model-server grid, 2 client threads, against
                the mock server in a child process
  report_stats  `apemo report` in-process over a pre-generated record set

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced phase, which runs
after an untraced phase so the tracing overhead can be stated. The package
is imported from ``src/`` next to this directory; the run fails without it.
The exit code is 0 when every output check passes, 1 when one fails (the
result line then says ``"correct": false``), and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = ("abm_sweep", "llm_mock", "report_stats")


def import_package() -> float:
    """Import apemo from this checkout's src/ and return the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import apemo
    import apemo.cli  # noqa: F401  (the config module and yaml load with it)

    elapsed = time.perf_counter() - t0
    if not Path(apemo.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"apemo was imported from {apemo.__file__}, not from {SRC}")
    return elapsed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import the apemo package: {exc}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, import_s)


def _terminate(signum, frame) -> None:
    # turn SIGTERM into SystemExit so every `finally` and `with` block runs
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
