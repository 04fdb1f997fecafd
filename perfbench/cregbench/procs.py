"""Run one child process and read its own resource usage.

``os.wait4`` returns the rusage of exactly the reaped child, so peak RSS
is that child's, not the running maximum ``RUSAGE_CHILDREN`` keeps over
every child this process ever had.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def run_child(argv, *, env, cwd, output_path, timeout: float) -> ChildRun:
    """Start ``argv``, wait for it, kill it after ``timeout`` seconds.

    Standard output and error go to ``output_path``; wall time runs from
    just before the spawn to the reap.
    """
    with open(output_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
    timed_out = threading.Event()
    reaped = threading.Event()

    def kill() -> None:
        if not reaped.is_set():
            timed_out.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.set()
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out.is_set(),
    )
