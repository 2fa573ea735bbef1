"""A helper script run in a child process that answers commands line by line.

The child prints one JSON line when it is ready, answers each command line
on its stdin with one JSON line, and exits on stdin EOF, optionally printing
a last JSON line first. Because EOF also arrives when the parent dies, the
child never outlives it. Closing the parent's handle always ends the child,
killing it if it does not exit in time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SHUTDOWN_TIMEOUT_S = 10.0


class ChildProcess:
    """Parent-side handle of one helper script; subclasses name the script."""

    script: Path

    def __init__(self) -> None:
        self._proc: Optional[subprocess.Popen] = None
        self.ready: dict = {}
        self.final: Optional[dict] = None

    def start(self) -> "ChildProcess":
        self._proc = subprocess.Popen(
            [sys.executable, str(self.script)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        line = self._proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"{self.script.name} exited before it was ready")
        self.ready = json.loads(line)
        return self

    def send(self, command: str) -> None:
        """Send one command line; receive() reads the answer."""
        if self._proc is None:
            raise RuntimeError(f"{self.script.name} is not running")
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()

    def receive(self) -> dict:
        """The child's JSON answer to the last command sent."""
        return json.loads(self._proc.stdout.readline())

    def ask(self, command: str) -> dict:
        """Send one command line and return the child's JSON answer."""
        self.send(command)
        return self.receive()

    def close(self) -> None:
        """End the child and keep the last line it prints, if any."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
            lines = out.strip().splitlines()
            if lines:
                self.final = json.loads(lines[-1])
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "ChildProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
