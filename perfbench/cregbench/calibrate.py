"""Host speed, measured on the benchmark's CPU while the program runs.

On a shared host the speed of one virtual CPU swings by up to 2x within
minutes, with no steal time to show for it; every part of a run, even
the fastest of many repetitions, slows with it.  A calibrator process
pinned to the same CPU as the program wakes every ``PERIOD_S`` and times
one pass of a fixed pure-Python kernel.  Over an interval, the 25th
percentile of those passes tracks how fast the CPU ran the program in
that interval (correlation 0.94-0.96 over classify 11 5 and 40-code
analyze batches on the reference machine), so a time multiplied by
``REFERENCE_S`` over that percentile reads as seconds on the reference
machine in its fast phase.

The kernel's working set is a few objects, and each timed pass follows
an untimed one, so the program's use of the caches hardly reaches the
timing: a change to the program moves the program's times, not the
scale.

    python -m cregbench.calibrate <samples>   # runs until SIGTERM

appends ``<end> <seconds>`` per timed pass to ``<samples>``, where
``<end>`` is ``time.perf_counter()``, comparable across processes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.02
# the kernel's 25th-percentile pass time on the reference machine (2-vCPU
# Intel Xeon VM, Python 3.11.7) in its fast phase
REFERENCE_S = 40e-6
MIN_PASSES = 20
LIFETIME_S = 900.0


class CalibrationError(RuntimeError):
    """Too few calibration passes fell inside an interval."""


def kernel() -> int:
    total = 0
    table = {}
    for i in range(400):
        total += i * i
        table[i & 63] = total
    return total


def main(samples_path: str) -> int:
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    deadline = time.perf_counter() + LIFETIME_S
    with open(samples_path, "w", encoding="utf-8") as out:
        # an orphaned calibrator ends itself
        while not stop and os.getppid() == parent and time.perf_counter() < deadline:
            time.sleep(PERIOD_S)
            kernel()
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            out.write(f"{end!r} {end - start!r}\n")
            out.flush()
    return 0


class Calibrator:
    """A calibrator child, pinned wherever this process is, for the
    duration of a ``with`` block."""

    def __init__(self, samples_path: Path, env: dict, cwd: Path) -> None:
        self.samples_path = samples_path
        self.argv = [sys.executable, "-m", "cregbench.calibrate", str(samples_path)]
        self.env, self.cwd = env, cwd
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Calibrator":
        self.samples_path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(self.argv, env=self.env, cwd=self.cwd)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def passes(self, start: float, end: float) -> list[float]:
        """Timed passes that ended inside ``[start, end]``."""
        try:
            text = self.samples_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        times = []
        for line in text.split("\n")[:-1]:  # past the last newline: half written
            at, seconds = map(float, line.split())
            if start <= at <= end:
                times.append(seconds)
        return times

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the 25th-percentile pass in the interval."""
        times = sorted(self.passes(start, end))
        if len(times) < MIN_PASSES:
            raise CalibrationError(f"{len(times)} calibration passes in an interval, need {MIN_PASSES}")
        return REFERENCE_S / times[len(times) // 4]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
