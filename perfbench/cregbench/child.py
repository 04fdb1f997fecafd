"""Child-process entry points: one iteration's calls in a fresh interpreter.

    python -m cregbench.child cli <label> <trace> <argv...>
    python -m cregbench.child replay <manifest> <results> <trace>
    python -m cregbench.child analyze <manifest> <results> <trace>

``<trace>`` is ``-`` for an untraced run, else the path the spans are
written to.  Every operation's outcome, with its wall and CPU time, goes
to ``<results>`` (JSON); the parent process judges it, so a child never
decides correctness.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext


def _tracer(trace_path: str):
    if trace_path == "-":
        return None
    from .tracer import Tracer

    return Tracer().install()


def _mark(tracer, label: str):
    return nullcontext() if tracer is None else tracer.mark(label)


def _finish(tracer, trace_path: str) -> None:
    if tracer is not None:
        tracer.dump(trace_path)


@contextmanager
def _timed(entry: dict):
    """Record the wall and CPU time of one operation in ``entry``."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        entry["wall_s"] = time.perf_counter() - wall
        entry["cpu_s"] = time.process_time() - cpu


def run_cli(label: str, trace_path: str, argv: list[str]) -> int:
    tracer = _tracer(trace_path)
    from cregcert import cli

    with _mark(tracer, label):
        code = cli.main(argv)
    _finish(tracer, trace_path)
    return code


def run_replay(manifest_path: str, results_path: str, trace_path: str) -> int:
    tracer = _tracer(trace_path)
    from cregcert import classify

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    results = []
    for item in manifest:
        entry = {"label": item["label"], "steps": None, "error": None}
        try:
            with open(item["path"], encoding="utf-8") as fh:
                report = json.load(fh)
            with _timed(entry), _mark(tracer, item["marker"]):
                steps = classify.verify_report(report)
            entry["steps"] = [[anchor, bool(ok), str(detail)] for anchor, ok, detail in steps]
        except Exception:  # one crashing replay is one failed operation
            entry["error"] = traceback.format_exc()
        results.append(entry)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    _finish(tracer, trace_path)
    return 0


def run_analyze(manifest_path: str, results_path: str, trace_path: str) -> int:
    tracer = _tracer(trace_path)
    from cregcert import cli

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    results = []
    for item in manifest:
        entry = {"analyze": None, "certify": None, "error": None}
        try:
            with _timed(entry):
                with _mark(tracer, "analyze"):
                    entry["analyze"] = cli.main(
                        ["analyze", item["code"], "--report", item["report"], "--out", item["out"]]
                    )
                with _mark(tracer, "certify"):
                    entry["certify"] = cli.main(["certify", item["code"], "creg", "--out", item["out"]])
        except Exception:  # one crashing code is one failed operation
            entry["error"] = traceback.format_exc()
        results.append(entry)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    _finish(tracer, trace_path)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(rest[0], rest[1], rest[2:])
    if mode == "replay":
        return run_replay(*rest)
    if mode == "analyze":
        return run_analyze(*rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
